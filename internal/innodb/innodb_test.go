package innodb

import (
	"testing"
	"time"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/dbsim/index"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

type rig struct {
	eng *sim.Engine
	dev *ssd.Device
	fs  *host.FS
	e   *Engine
	tbl *Table
}

func newRig(t *testing.T, barrier, dwb, realBytes bool) *rig {
	t.Helper()
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		t.Fatal(err)
	}
	fs := host.NewFS(dev, barrier)
	e, err := Open(eng, fs, fs, Config{
		PageBytes:    4 * storage.KB,
		BufferBytes:  1 * storage.MB,
		DoubleWrite:  dwb,
		DataPages:    30_000,
		LogFilePages: 4_000,
		LogFiles:     1,
		RealBytes:    realBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("t", index.Config{RowBytes: 200, MaxRows: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad(50_000); err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, dev: dev, fs: fs, e: e, tbl: tbl}
}

func TestLookupUpdateCommit(t *testing.T) {
	r := newRig(t, false, false, false)
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		if err := tx.Lookup(p, r.tbl, 123); err != nil {
			t.Errorf("Lookup: %v", err)
		}
		if err := tx.Update(p, r.tbl, 123); err != nil {
			t.Errorf("Update: %v", err)
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
		}
	})
	r.eng.Run()
	r.e.Close()
	if r.e.Commits != 1 {
		t.Fatalf("commits = %d", r.e.Commits)
	}
	if r.e.Log().Records == 0 {
		t.Fatal("no redo records")
	}
	if r.e.Pool().Stats().Gets == 0 {
		t.Fatal("no buffer activity")
	}
}

func TestReadOnlyCommitIsFree(t *testing.T) {
	r := newRig(t, true, true, false)
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		if err := tx.Lookup(p, r.tbl, 1); err != nil {
			t.Errorf("Lookup: %v", err)
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
		}
	})
	r.eng.Run()
	r.e.Close()
	if r.e.Log().Flushes != 0 {
		t.Fatal("read-only commit flushed the log")
	}
}

func TestDoubleWriteDoublesPageWrites(t *testing.T) {
	run := func(dwb bool) (pageWrites, dwbWrites int64) {
		r := newRig(t, false, dwb, false)
		r.eng.Go("t", func(p *sim.Proc) {
			for i := int64(0); i < 300; i++ {
				tx := r.e.Begin()
				if err := tx.Update(p, r.tbl, i*37%50_000); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
				if err := tx.Commit(p); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
			if err := r.e.FlushAll(p); err != nil {
				t.Errorf("FlushAll: %v", err)
			}
		})
		r.eng.Run()
		r.e.Close()
		return r.e.PageWrites, r.e.DWBWrites
	}
	pwOff, dwOff := run(false)
	pwOn, dwOn := run(true)
	if dwOff != 0 {
		t.Fatalf("DWB writes with DWB off: %d", dwOff)
	}
	if dwOn == 0 || dwOn != pwOn {
		t.Fatalf("DWB on: page writes %d, dwb writes %d — every page must be written twice", pwOn, dwOn)
	}
	if pwOff == 0 {
		t.Fatal("no page writes at all")
	}
}

func TestWALBeforeData(t *testing.T) {
	// Flushing a dirty page must first make the log durable up to the
	// page's LSN.
	r := newRig(t, true, false, false)
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		if err := tx.Update(p, r.tbl, 7); err != nil {
			t.Errorf("Update: %v", err)
			return
		}
		// No commit: log tail is volatile. Force the page out.
		if err := r.e.FlushAll(p); err != nil {
			t.Errorf("FlushAll: %v", err)
			return
		}
		if r.e.Log().DurableLSN() < tx.maxLSN {
			t.Error("page flushed before its redo was durable")
		}
	})
	r.eng.Run()
	r.e.Close()
}

func TestBarrierCostVisibleAtCommit(t *testing.T) {
	commitCost := func(barrier bool) time.Duration {
		r := newRig(t, barrier, false, false)
		var cost time.Duration
		r.eng.Go("t", func(p *sim.Proc) {
			tx := r.e.Begin()
			if err := tx.Update(p, r.tbl, 5); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			start := p.Now()
			if err := tx.Commit(p); err != nil {
				t.Errorf("Commit: %v", err)
			}
			cost = p.Now() - start
		})
		r.eng.Run()
		r.e.Close()
		return cost
	}
	on, off := commitCost(true), commitCost(false)
	if on < 5*off {
		t.Fatalf("barrier-on commit (%v) not much slower than barrier-off (%v)", on, off)
	}
}

func TestInsertsGrowTable(t *testing.T) {
	r := newRig(t, false, false, false)
	before := r.tbl.Tree().Rows()
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		for i := int64(0); i < 10; i++ {
			if err := tx.Insert(p, r.tbl, before+i); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
		}
	})
	r.eng.Run()
	r.e.Close()
	if r.tbl.Tree().Rows() != before+10 {
		t.Fatalf("rows = %d, want %d", r.tbl.Tree().Rows(), before+10)
	}
}

func TestRealBytesTornDetection(t *testing.T) {
	// RealBytes engines stamp checksummed images; reading a page the
	// engine believes it wrote, after corrupting it on the device, must
	// fail checksum validation.
	r := newRig(t, false, false, true)
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		if err := tx.Update(p, r.tbl, 3); err != nil {
			t.Errorf("Update: %v", err)
			return
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if err := r.e.FlushAll(p); err != nil {
			t.Errorf("FlushAll: %v", err)
		}
	})
	r.eng.Run()

	// Find the page the update touched and verify it parses on disk.
	r.eng.Go("verify", func(p *sim.Proc) {
		leaf := r.tbl.Tree().LeafOf(3)
		ver, ok, err := r.e.PageVersionOnDisk(p, leaf)
		if err != nil || !ok || ver == 0 {
			t.Errorf("on-disk version = %d, %v, %v", ver, ok, err)
		}
	})
	r.eng.Run()
	r.e.Close()
}

func TestCrashRecoveryRedo(t *testing.T) {
	// Commit a change, crash before the page is flushed, recover: redo
	// must roll the page forward.
	eng := sim.New()
	dev, _ := ssd.New(eng, ssd.DuraSSD(16))
	fs := host.NewFS(dev, false)
	cfg := Config{
		PageBytes: 4 * storage.KB, BufferBytes: 1 * storage.MB,
		DataPages: 30_000, LogFilePages: 4_000, LogFiles: 1, RealBytes: true,
	}
	e, err := Open(eng, fs, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t", index.Config{RowBytes: 200, MaxRows: 100_000})
	_ = tbl.BulkLoad(50_000)

	var wantPage storage.LPN
	var wantVer uint64
	eng.Go("t", func(p *sim.Proc) {
		tx := e.Begin()
		if err := tx.Update(p, tbl, 999); err != nil {
			t.Errorf("Update: %v", err)
			return
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		for id, v := range tx.Touched() {
			wantPage, wantVer = storage.LPN(id), v
		}
		// Crash without flushing the buffer pool.
		dev.PowerFail()
	})
	eng.Run()
	e.Close()

	eng.Go("recover", func(p *sim.Proc) {
		if err := dev.Reboot(p); err != nil {
			t.Errorf("Reboot: %v", err)
			return
		}
		e2, err := Reopen(eng, fs, fs, cfg)
		if err != nil {
			t.Errorf("Reopen: %v", err)
			return
		}
		defer e2.Close()
		rep, err := e2.Recover(p)
		if err != nil {
			t.Errorf("Recover: %v", err)
			return
		}
		if rep.RedoApplied == 0 {
			t.Error("recovery applied no redo despite unflushed commit")
		}
		ver, ok, err := e2.PageVersionOnDisk(p, buffer.PageID(wantPage))
		if err != nil || !ok || ver < wantVer {
			t.Errorf("page %d version after redo = %d (%v, %v), want >= %d", wantPage, ver, ok, err, wantVer)
		}
	})
	eng.Run()
}

func TestScanTouchesConsecutiveLeaves(t *testing.T) {
	r := newRig(t, false, false, false)
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		rows := r.tbl.Tree().RowsPerLeaf() * 3
		if err := tx.Scan(p, r.tbl, 0, rows); err != nil {
			t.Errorf("Scan: %v", err)
		}
	})
	before := r.e.Pool().Stats().Gets
	r.eng.Run()
	r.e.Close()
	gets := r.e.Pool().Stats().Gets - before
	depth := int64(r.tbl.Tree().Depth())
	if gets < depth+2 {
		t.Fatalf("scan of 3 leaves did %d gets, want >= %d", gets, depth+2)
	}
}

func TestEmptyScanReadsOnlySearchPath(t *testing.T) {
	for _, n := range []int64{0, -1} {
		r := newRig(t, false, false, false)
		r.eng.Go("t", func(p *sim.Proc) {
			tx := r.e.Begin()
			if err := tx.Scan(p, r.tbl, 5, n); err != nil {
				t.Errorf("Scan(n=%d): %v", n, err)
			}
		})
		before := r.e.Pool().Stats().Gets
		r.eng.Run()
		r.e.Close()
		gets := r.e.Pool().Stats().Gets - before
		if depth := int64(r.tbl.Tree().Depth()); gets != depth {
			t.Fatalf("Scan(n=%d) did %d gets, want the %d-page search path", n, gets, depth)
		}
	}
}

func TestODSyncSkipsBatchFsync(t *testing.T) {
	// With O_DSYNC the engine issues no explicit fsync on the flush path;
	// each data write carries its own barrier.
	eng := sim.New()
	dev, _ := ssd.New(eng, ssd.DuraSSD(16))
	fs := host.NewFS(dev, true)
	e, err := Open(eng, fs, fs, Config{
		PageBytes: 4 * storage.KB, BufferBytes: 256 * storage.KB,
		ODSync: true, DataPages: 30_000, LogFilePages: 4_000, LogFiles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t", index.Config{RowBytes: 200, MaxRows: 100_000})
	_ = tbl.BulkLoad(50_000)
	eng.Go("t", func(p *sim.Proc) {
		tx := e.Begin()
		if err := tx.Update(p, tbl, 1); err != nil {
			t.Errorf("Update: %v", err)
			return
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if err := e.FlushAll(p); err != nil {
			t.Errorf("FlushAll: %v", err)
		}
	})
	eng.Run()
	e.Close()
	// Flushes come only from the log commit and the O_DSYNC writes; the
	// engine itself must not have fdatasync'd the data file after batches.
	if dev.Stats().FlushCommands == 0 {
		t.Fatal("O_DSYNC produced no device flushes at all")
	}
}

func TestAdoptTableRestoresLayout(t *testing.T) {
	eng := sim.New()
	dev, _ := ssd.New(eng, ssd.DuraSSD(16))
	fs := host.NewFS(dev, false)
	cfg := Config{
		PageBytes: 4 * storage.KB, BufferBytes: 256 * storage.KB,
		DataPages: 30_000, LogFilePages: 4_000, LogFiles: 1, RealBytes: true,
	}
	e, err := Open(eng, fs, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t", index.Config{RowBytes: 200, MaxRows: 100_000})
	_ = tbl.BulkLoad(50_000)
	e.Close()

	e2, err := Reopen(eng, fs, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2.AdoptTable("t", tbl)
	eng.Go("t", func(p *sim.Proc) {
		tx := e2.Begin()
		if err := tx.Lookup(p, tbl, 123); err != nil {
			t.Errorf("Lookup after adopt: %v", err)
		}
	})
	eng.Run()
	e2.Close()
}
