// Package innodb implements a MySQL/InnoDB-style storage engine on the
// simulated storage stack: a shared buffer pool (LRU + free list + page
// cleaner), B+-tree tables, a redo log with group commit, and the
// double-write buffer — the redundant-write mechanism the paper's Figure 5
// turns on and off.
//
// Flush path semantics follow the paper's description (§2.1):
//
//   - double-write ON: a batch of dirty pages is written sequentially to
//     the double-write area, fsync'd, rewritten in place, and fsync'd
//     again — two physical writes and two flush-cache commands per batch
//     when the filesystem has barriers on.
//   - double-write OFF: pages are written in place once and fsync'd once,
//     which is only safe on a device with atomic page writes (DuraSSD).
//
// In RealBytes mode every page carries a checksummed, version-stamped
// image (storage.BuildPageImage) and the redo log stores real records, so
// crash tests can replay recovery and detect torn or lost writes exactly
// like production checksum validation would.
package innodb

import (
	"errors"
	"fmt"
	"time"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/dbsim/index"
	"durassd/internal/dbsim/wal"
	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// ErrTornPage reports a page whose checksum failed validation on read.
var ErrTornPage = errors.New("innodb: torn page detected (checksum mismatch)")

// Config tunes the engine.
type Config struct {
	PageBytes   int   // database page size: 4, 8 or 16 KB
	BufferBytes int64 // buffer pool size
	DoubleWrite bool  // the paper's double-write-buffer knob
	DataPages   int64 // data file capacity in database pages

	LogFilePages int64 // device pages per redo file (3 files)
	LogFiles     int

	RealBytes bool // page images + real redo records (crash testing)

	// ODSync opens the data file with O_DSYNC, the commercial database's
	// behaviour in the paper's TPC-C experiment: every page write carries
	// its own write barrier (when the filesystem honors barriers), and the
	// engine issues no separate fsyncs on the flush path.
	ODSync bool

	CleanerInterval time.Duration
	CleanerBatch    int
	DWBBatch        int // double-write batch capacity in pages

	LogRecordBytes int // redo record payload per row change
	// WriteHoldCPU is the time a row change holds the leaf page's
	// exclusive latch (0 = derive from the page size).
	WriteHoldCPU time.Duration
}

func (c *Config) defaults() error {
	if c.PageBytes <= 0 {
		c.PageBytes = 16 * storage.KB
	}
	if c.BufferBytes <= 0 {
		return fmt.Errorf("innodb: BufferBytes must be positive")
	}
	if c.DataPages <= 0 {
		return fmt.Errorf("innodb: DataPages must be positive")
	}
	if c.LogFiles <= 0 {
		c.LogFiles = 3
	}
	if c.LogFilePages <= 0 {
		c.LogFilePages = 64 * 1024 // 256 MB at 4 KB device pages
	}
	if c.CleanerInterval == 0 {
		c.CleanerInterval = 5 * time.Millisecond
	}
	if c.CleanerBatch <= 0 {
		c.CleanerBatch = 64
	}
	if c.DWBBatch <= 0 {
		c.DWBBatch = 128
	}
	if c.LogRecordBytes <= 0 {
		c.LogRecordBytes = 128
	}
	if c.WriteHoldCPU == 0 {
		// Row-change CPU while holding the leaf's exclusive latch; scales
		// mildly with page size (bigger pages: longer searches and copies).
		c.WriteHoldCPU = 100*time.Microsecond + 4*time.Microsecond*time.Duration(c.PageBytes/1024)
	}
	return nil
}

// Engine is the storage engine.
type Engine struct {
	eng    *sim.Engine
	cfg    Config
	dataFS *host.FS
	logFS  *host.FS

	dataFile *host.File
	dwbFile  *host.File
	pool     *buffer.Pool
	log      *wal.Log
	tables   map[string]*Table
	nextPage buffer.PageID
	perDB    int // device pages per database page

	versions map[buffer.PageID]uint64 // bytes mode: current page versions

	// Stats
	Commits    int64
	PageWrites int64
	DWBWrites  int64
}

// Open creates an engine with its data files on dataFS and redo log on
// logFS (the paper gives the log its own DuraSSD; pass the same FS to share
// one device).
func Open(eng *sim.Engine, dataFS, logFS *host.FS, cfg Config) (*Engine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	devPage := dataFS.Device().PageSize()
	if cfg.PageBytes%devPage != 0 {
		return nil, fmt.Errorf("innodb: page %d not a multiple of device page %d", cfg.PageBytes, devPage)
	}
	e := &Engine{
		eng:    eng,
		cfg:    cfg,
		dataFS: dataFS,
		logFS:  logFS,
		tables: make(map[string]*Table),
		perDB:  cfg.PageBytes / devPage,
	}
	var err error
	if e.dataFile, err = dataFS.Create("ibdata", cfg.DataPages*int64(e.perDB)); err != nil {
		return nil, err
	}
	e.dataFile.SetODSync(cfg.ODSync)
	e.dataFile.SetOrigin(iotrace.OriginData)
	if e.dwbFile, err = dataFS.Create("ib-doublewrite", int64(cfg.DWBBatch*e.perDB)); err != nil {
		return nil, err
	}
	e.dwbFile.SetOrigin(iotrace.OriginDoubleWrite)
	if e.log, err = wal.New(eng, logFS, wal.Config{FilePages: cfg.LogFilePages, Files: cfg.LogFiles, RealBytes: cfg.RealBytes}); err != nil {
		return nil, err
	}
	frames := int(cfg.BufferBytes / int64(cfg.PageBytes))
	e.pool, err = buffer.New(eng, buffer.Config{
		Frames:          frames,
		PageBytes:       cfg.PageBytes,
		RealBytes:       cfg.RealBytes,
		CleanerInterval: cfg.CleanerInterval,
		CleanerBatch:    cfg.CleanerBatch,
	}, (*pageReader)(e), (*pageWriter)(e))
	if err != nil {
		return nil, err
	}
	if cfg.RealBytes {
		e.versions = make(map[buffer.PageID]uint64)
	}
	return e, nil
}

// Pool exposes the buffer pool (stats for Figure 6a).
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// DataDevice returns the device under the data filesystem (endurance and
// write-amplification accounting).
func (e *Engine) DataDevice() storage.Device { return e.dataFS.Device() }

// Log exposes the redo log.
func (e *Engine) Log() *wal.Log { return e.log }

// PageBytes returns the configured database page size.
func (e *Engine) PageBytes() int { return e.cfg.PageBytes }

// pageReader adapts the engine to buffer.PageReader.
type pageReader Engine

func (r *pageReader) ReadPage(p *sim.Proc, id buffer.PageID, buf []byte) error {
	e := (*Engine)(r)
	if err := e.dataFile.ReadPages(p, int64(id)*int64(e.perDB), e.perDB, buf); err != nil {
		return err
	}
	if e.cfg.RealBytes && buf != nil {
		if want, ok := e.versions[id]; ok && want > 0 {
			if _, _, valid := storage.ParsePageImage(buf); !valid {
				return fmt.Errorf("%w: page %d", ErrTornPage, id)
			}
		}
	}
	return nil
}

// pageWriter adapts the engine to buffer.PageWriter, implementing the
// WAL-before-data rule and the double-write buffer.
type pageWriter Engine

func (w *pageWriter) WritePages(p *sim.Proc, pages []buffer.PageWrite) error {
	e := (*Engine)(w)
	// WAL rule: the log must be durable up to the newest LSN in the batch
	// before any of these pages hits storage.
	var maxLSN uint64
	for _, pg := range pages {
		if pg.LSN > maxLSN {
			maxLSN = pg.LSN
		}
	}
	if maxLSN > 0 {
		if err := e.log.Commit(p, maxLSN); err != nil {
			return err
		}
	}
	if e.cfg.DoubleWrite {
		// Phase 1: sequential batch into the double-write area + fsync.
		for start := 0; start < len(pages); start += e.cfg.DWBBatch {
			end := start + e.cfg.DWBBatch
			if end > len(pages) {
				end = len(pages)
			}
			chunk := pages[start:end]
			var img []byte
			if e.cfg.RealBytes {
				img = make([]byte, len(chunk)*e.cfg.PageBytes)
				for i, pg := range chunk {
					copy(img[i*e.cfg.PageBytes:], pg.Data)
				}
			}
			if err := e.dwbFile.WritePages(p, 0, len(chunk)*e.perDB, img); err != nil {
				return err
			}
			if err := e.syncData(p, e.dwbFile); err != nil {
				return err
			}
			// Phase 2: in-place writes + fsync.
			for _, pg := range chunk {
				if err := e.dataFile.WritePages(p, int64(pg.ID)*int64(e.perDB), e.perDB, pg.Data); err != nil {
					return err
				}
				e.PageWrites++
			}
			e.DWBWrites += int64(len(chunk))
			if err := e.syncData(p, e.dataFile); err != nil {
				return err
			}
		}
		return nil
	}
	// Single in-place write per page + one fsync per batch.
	for _, pg := range pages {
		if err := e.dataFile.WritePages(p, int64(pg.ID)*int64(e.perDB), e.perDB, pg.Data); err != nil {
			return err
		}
		e.PageWrites++
	}
	return e.syncData(p, e.dataFile)
}

// syncData fsyncs a data file unless the engine runs O_DSYNC (each write
// already carried its barrier).
func (e *Engine) syncData(p *sim.Proc, f *host.File) error {
	if e.cfg.ODSync {
		return nil
	}
	return f.Fdatasync(p)
}

// Table is a B+-tree-organized table (or secondary index).
type Table struct {
	e    *Engine
	name string
	tree *index.Tree
}

// CreateTable reserves page space for a table of at most cfg.MaxRows rows.
// cfg.PageBytes is forced to the engine's page size.
func (e *Engine) CreateTable(name string, cfg index.Config) (*Table, error) {
	if _, ok := e.tables[name]; ok {
		return nil, fmt.Errorf("innodb: table %q exists", name)
	}
	cfg.PageBytes = e.cfg.PageBytes
	tree, err := index.New(cfg, e.nextPage)
	if err != nil {
		return nil, err
	}
	if int64(e.nextPage)+tree.Pages() > e.cfg.DataPages {
		return nil, fmt.Errorf("innodb: data file full creating %q", name)
	}
	e.nextPage += buffer.PageID(tree.Pages())
	t := &Table{e: e, name: name, tree: tree}
	e.tables[name] = t
	return t, nil
}

// Tree exposes the table's index topology.
func (t *Table) Tree() *index.Tree { return t.tree }

// BulkLoad installs rows instantly (initial database load): the row count
// is set and the table's pages are preloaded on the device.
func (t *Table) BulkLoad(rows int64) error {
	t.tree.SetRows(rows)
	leaves := rows / t.tree.RowsPerLeaf()
	if leaves < 1 {
		leaves = 1
	}
	// Preload the whole reserved range; timing-only images.
	start := int64(t.tree.LeafOf(0)) * int64(t.e.perDB)
	n := t.tree.Pages() * int64(t.e.perDB)
	return t.e.dataFile.Preload(start, n, nil)
}

// Tx is a transaction handle.
type Tx struct {
	e       *Engine
	maxLSN  uint64
	writes  int
	touched map[buffer.PageID]uint64 // bytes mode: page -> version written
}

// Touched returns the page versions this transaction wrote (bytes mode);
// crash harnesses record them after Commit to verify durability.
func (tx *Tx) Touched() map[buffer.PageID]uint64 { return tx.touched }

// Begin starts a transaction.
func (e *Engine) Begin() *Tx { return &Tx{e: e} }

// touch pins and unpins one page (read access).
func (e *Engine) touch(p *sim.Proc, id buffer.PageID, dirtyLSN uint64) error {
	if dirtyLSN != 0 {
		panic("innodb: use touchWrite for modifications")
	}
	fr, err := e.pool.Get(p, id)
	if err != nil {
		return err
	}
	e.pool.Unpin(fr)
	return nil
}

// touchWrite applies one row change to the page: it holds the page's
// exclusive latch for the row-change CPU time, advances the page version,
// appends the redo record and dirties the frame. Version assignment and
// logging happen under the latch, so concurrent writers to the same page
// serialize correctly.
func (e *Engine) touchWrite(p *sim.Proc, tx *Tx, id buffer.PageID) error {
	fr, err := e.pool.Get(p, id)
	if err != nil {
		return err
	}
	e.pool.LockX(p, fr)
	p.Sleep(e.cfg.WriteHoldCPU)
	var lsn uint64
	if e.cfg.RealBytes {
		e.versions[id]++
		storage.BuildPageImage(fr.Data(), uint64(id), e.versions[id])
		lsn = e.log.AppendRecord(uint64(id), e.versions[id], e.cfg.LogRecordBytes)
		if tx.touched == nil {
			tx.touched = make(map[buffer.PageID]uint64)
		}
		tx.touched[id] = e.versions[id]
	} else {
		lsn = e.log.Append(e.cfg.LogRecordBytes)
	}
	if lsn > tx.maxLSN {
		tx.maxLSN = lsn
	}
	tx.writes++
	e.pool.MarkDirty(fr, lsn)
	e.pool.UnlockX(fr)
	e.pool.Unpin(fr)
	return nil
}

// Lookup reads the row at rank through the tree path.
func (tx *Tx) Lookup(p *sim.Proc, t *Table, rank int64) error {
	for _, id := range t.tree.SearchPath(rank) {
		if err := tx.e.touch(p, id, 0); err != nil {
			return err
		}
	}
	return nil
}

// Scan reads n consecutive rows starting at rank (path to the first leaf,
// then sibling leaves). An empty scan (n <= 0) reads only the path.
func (tx *Tx) Scan(p *sim.Proc, t *Table, rank, n int64) error {
	for _, id := range t.tree.SearchPath(rank) {
		if err := tx.e.touch(p, id, 0); err != nil {
			return err
		}
	}
	if n <= 0 {
		return nil
	}
	leaves := t.tree.ScanLeaves(rank, n)
	for _, id := range leaves[1:] {
		if err := tx.e.touch(p, id, 0); err != nil {
			return err
		}
	}
	return nil
}

// Update modifies the row at rank: tree path read, leaf dirtied, redo
// logged.
func (tx *Tx) Update(p *sim.Proc, t *Table, rank int64) error {
	path := t.tree.SearchPath(rank)
	for _, id := range path[:len(path)-1] {
		if err := tx.e.touch(p, id, 0); err != nil {
			return err
		}
	}
	return tx.e.touchWrite(p, tx, path[len(path)-1])
}

// Insert adds a row at rank; splits dirty parent pages amortizedly.
func (tx *Tx) Insert(p *sim.Proc, t *Table, rank int64) error {
	path := t.tree.SearchPath(rank)
	for _, id := range path[:len(path)-1] {
		if err := tx.e.touch(p, id, 0); err != nil {
			return err
		}
	}
	for _, id := range t.tree.Insert(rank) {
		if err := tx.e.touchWrite(p, tx, id); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the row at rank.
func (tx *Tx) Delete(p *sim.Proc, t *Table, rank int64) error {
	path := t.tree.SearchPath(rank)
	for _, id := range path[:len(path)-1] {
		if err := tx.e.touch(p, id, 0); err != nil {
			return err
		}
	}
	for _, id := range t.tree.Delete(rank) {
		if err := tx.e.touchWrite(p, tx, id); err != nil {
			return err
		}
	}
	return nil
}

// Commit makes the transaction durable: the log is flushed up to its last
// LSN (group commit; honors the filesystem barrier setting).
func (tx *Tx) Commit(p *sim.Proc) error {
	if tx.writes == 0 {
		return nil
	}
	if err := tx.e.log.Commit(p, tx.maxLSN); err != nil {
		return err
	}
	tx.e.Commits++
	return nil
}

// FlushAll checkpoints: every dirty page goes to storage.
func (e *Engine) FlushAll(p *sim.Proc) error { return e.pool.FlushAll(p) }

// Close stops background workers.
func (e *Engine) Close() { e.pool.Close() }
