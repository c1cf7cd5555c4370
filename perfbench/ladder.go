package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/dbsim/index"
	"durassd/internal/dbsim/wal"
	"durassd/internal/devfront"
	"durassd/internal/ftl"
	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/serve"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

// The layer ladder times direct calls into each layer's public functions,
// each over a fixed seeded input. A simulated call that parks returns only
// after other processes' events have run, so host time cannot be read
// around it inside a workload; here each rung drives one layer alone and
// divides the host time of the whole drive by its operation count.
//
// Every rung checks that it did its fixed amount of work (operation count
// and final state), so an optimisation cannot turn a rung into a no-op.

// rung is one ladder step. stem names the metric pair: stem+"_ns" and
// stem+"_allocs", with any "_wN" suffix kept last (sim.epoch_ns_w1).
type rung struct {
	stem string
	n    int
	run  func(m *meter, n int) error
}

// meter times the measured section of a rung and counts its allocations.
type meter struct {
	d       time.Duration
	mallocs uint64
}

func (m *meter) time(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	m.d = time.Since(t0)
	runtime.ReadMemStats(&m1)
	m.mallocs = m1.Mallocs - m0.Mallocs
}

// ladderReps is how many times each rung runs; it reports the medians.
const ladderReps = 3

var ladder = []rung{
	{"sim.event", 200_000, rungEvent},
	{"sim.proc_switch", 100_000, rungProcSwitch},
	{"sim.signal", 100_000, rungSignal},
	{"sim.call", 20_000, rungCall},
	{"sim.epoch_w1", 20_000, func(m *meter, n int) error { return rungEpoch(m, n, 1) }},
	{"sim.epoch_w2", 5_000, func(m *meter, n int) error { return rungEpoch(m, n, 2) }},
	{"nand.program", 20_000, rungNANDProgram},
	{"core.write", 3_000, rungCoreWrite},
	{"devfront.enqueue", 200_000, rungEnqueue},
	{"host.write", 20_000, rungHostWrite},
	{"buffer.get_hit", 200_000, func(m *meter, n int) error { return rungBufferGet(m, n, true) }},
	{"buffer.get_miss", 50_000, func(m *meter, n int) error { return rungBufferGet(m, n, false) }},
	{"index.search", 200_000, rungIndexSearch},
	{"wal.append", 500_000, rungWALAppend},
	{"serve.store_put", 10_000, rungStorePut},
	{"serve.group_put", 5_000, rungGroupPut},
	{"serve.server_get", 10_000, rungServerGet},
}

// runLadder runs every rung and returns its metrics.
func runLadder() (map[string]float64, error) {
	out := map[string]float64{}
	for _, r := range ladder {
		var ns, allocs []float64
		for i := 0; i < ladderReps; i++ {
			runtime.GC()
			m := &meter{}
			if err := r.run(m, r.n); err != nil {
				return nil, fmt.Errorf("ladder %s: %w", r.stem, err)
			}
			ns = append(ns, float64(m.d.Nanoseconds())/float64(r.n))
			allocs = append(allocs, float64(m.mallocs)/float64(r.n))
		}
		out[ladderName(r.stem, "ns")] = median(ns)
		out[ladderName(r.stem, "allocs")] = median(allocs)
	}
	return out, nil
}

// ladderName turns a stem into its metric name: sim.event → sim.event_ns,
// sim.epoch_w1 → sim.epoch_ns_w1.
func ladderName(stem, kind string) string {
	if i := strings.LastIndex(stem, "_w"); i > 0 {
		return stem[:i] + "_" + kind + stem[i:]
	}
	return stem + "_" + kind
}

// ladderNames lists every ladder metric, sorted.
func ladderNames() []string {
	var names []string
	for _, r := range ladder {
		names = append(names, ladderName(r.stem, "ns"), ladderName(r.stem, "allocs"))
	}
	sort.Strings(names)
	return names
}

func want(what string, got, exp int64) error {
	if got != exp {
		return fmt.Errorf("%s = %d, want %d", what, got, exp)
	}
	return nil
}

// rungEvent: Engine.Schedule plus dispatch of n seeded-delay events.
func rungEvent(m *meter, n int) error {
	eng := sim.New()
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(1000))
	}
	var count int64
	inc := func() { count++ }
	m.time(func() {
		for _, d := range delays {
			eng.Schedule(d, inc)
		}
		eng.Run()
	})
	if err := want("events fired", count, int64(n)); err != nil {
		return err
	}
	return want("engine events", int64(eng.Events()), int64(n))
}

// rungProcSwitch: one process sleeping n times (a park and a resume each).
func rungProcSwitch(m *meter, n int) error {
	eng := sim.New()
	var count int64
	eng.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Nanosecond)
			count++
		}
	})
	m.time(eng.Run)
	if err := want("sleeps", count, int64(n)); err != nil {
		return err
	}
	return want("virtual ns", int64(eng.Now()), int64(n))
}

// rungSignal: NewSignal, a scheduled Fire and a Wait, n times.
func rungSignal(m *meter, n int) error {
	eng := sim.New()
	var count int64
	eng.Go("waiter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			s := sim.NewSignal(eng)
			eng.Schedule(time.Nanosecond, s.Fire)
			s.Wait(p)
			if s.Fired() {
				count++
			}
		}
	})
	m.time(eng.Run)
	if err := want("signals", count, int64(n)); err != nil {
		return err
	}
	return want("virtual ns", int64(eng.Now()), int64(n))
}

// rungCall: Domain.Call round trips between two domains, one worker.
func rungCall(m *meter, n int) error {
	const lat = time.Microsecond
	c := sim.NewCluster(2, lat, 1)
	defer c.Close()
	var served int64
	c.Domain(0).Go("caller", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c.Domain(0).Call(p, c.Domain(1), "callee", func(*sim.Proc) { served++ })
		}
	})
	m.time(c.Run)
	if err := want("calls served", served, int64(n)); err != nil {
		return err
	}
	return want("caller virtual ns", int64(c.Domain(0).Now()), int64(2*lat)*int64(n))
}

// rungEpoch: two domains that each advance one link latency per step, so
// every step is a near-empty epoch; workers 1 is sequential, 2 parallel.
func rungEpoch(m *meter, n, workers int) error {
	const lat = time.Microsecond
	c := sim.NewCluster(2, lat, workers)
	defer c.Close()
	var steps [2]int64
	for d := 0; d < 2; d++ {
		d := d
		c.Domain(d).Go("stepper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(lat)
				steps[d]++
			}
		})
	}
	m.time(c.Run)
	for d := 0; d < 2; d++ {
		if err := want(fmt.Sprintf("domain %d steps", d), steps[d], int64(n)); err != nil {
			return err
		}
		if err := want(fmt.Sprintf("domain %d virtual ns", d), int64(c.Domain(d).Now()), int64(lat)*int64(n)); err != nil {
			return err
		}
	}
	return nil
}

// rungNANDProgram: nand.Array.ProgramPage on n consecutive free pages.
func rungNANDProgram(m *meter, n int) error {
	eng := sim.New()
	reg := iotrace.NewRegistry()
	arr, err := nand.New(eng, nand.EnterpriseConfig(16), reg)
	if err != nil {
		return err
	}
	if int64(n) > arr.Config().Pages() {
		return fmt.Errorf("array has %d pages, rung needs %d", arr.Config().Pages(), n)
	}
	var progErr error
	eng.Go("programmer", func(p *sim.Proc) {
		tags := make([]nand.SlotTag, 2)
		for i := 0; i < n && progErr == nil; i++ {
			tags[0].LPN, tags[1].LPN = storage.LPN(2*i), storage.LPN(2*i+1)
			progErr = arr.ProgramPage(p, iotrace.Req{}, nand.PPN(i), tags, nil, false)
		}
	})
	m.time(eng.Run)
	if progErr != nil {
		return progErr
	}
	if err := want("NAND programs", reg.Stats().NANDPrograms, int64(n)); err != nil {
		return err
	}
	if st := arr.State(nand.PPN(n - 1)); st == nand.PageFree {
		return fmt.Errorf("last page still free after its program")
	}
	return nil
}

// rungCoreWrite: core.Controller.Write of n single-slot writes to
// distinct LPNs, fewer than the cache holds, so every write stays cached.
func rungCoreWrite(m *meter, n int) error {
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		return err
	}
	ctrl := dev.Controller()
	var werr error
	eng.Go("writer", func(p *sim.Proc) {
		slot := make([]ftl.SlotWrite, 1)
		for i := 0; i < n && werr == nil; i++ {
			slot[0] = ftl.SlotWrite{LPN: storage.LPN(i)}
			werr = ctrl.Write(p, iotrace.Req{}, slot)
		}
	})
	m.time(eng.Run)
	if werr != nil {
		return werr
	}
	if n > 4096 {
		return fmt.Errorf("rung writes %d slots, more than the 4096-frame cache", n)
	}
	return want("cached slots", int64(ctrl.CachedSlots()), int64(n))
}

// rungEnqueue: devfront.Front.Enqueue and Dequeue on a depth-1 queue, so
// a Dequeue that did nothing would leave the next Enqueue parked forever.
func rungEnqueue(m *meter, n int) error {
	eng := sim.New()
	f := devfront.New(eng, devfront.Config{Depth: 1}, iotrace.NewRegistry())
	var count int64
	eng.Go("submitter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			f.Enqueue(p, iotrace.Req{})
			f.Dequeue()
			count++
		}
	})
	m.time(eng.Run)
	return want("commands queued", count, int64(n))
}

// rungHostWrite: host.File.WritePages of one page, n times, through a
// DuraSSD with barriers off.
func rungHostWrite(m *meter, n int) error {
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		return err
	}
	f, err := host.NewFS(dev, false).Create("ladder", 4096)
	if err != nil {
		return err
	}
	var werr error
	eng.Go("writer", func(p *sim.Proc) {
		for i := 0; i < n && werr == nil; i++ {
			werr = f.WritePages(p, int64(i%4096), 1, nil)
		}
	})
	m.time(eng.Run)
	if werr != nil {
		return werr
	}
	return want("device write commands", dev.Stats().WriteCommands, int64(n))
}

// nullIO is a buffer-pool backing store that completes instantly.
type nullIO struct{ reads int64 }

func (r *nullIO) ReadPage(*sim.Proc, buffer.PageID, []byte) error { r.reads++; return nil }
func (*nullIO) WritePages(*sim.Proc, []buffer.PageWrite) error    { return nil }

// rungBufferGet: buffer.Pool.Get plus Unpin of seeded page IDs. The hit
// rung first loads its 512 pages into a 1024-frame pool; the miss rung
// walks 4096 pages cyclically through it, so every Get evicts.
func rungBufferGet(m *meter, n int, hit bool) error {
	eng := sim.New()
	io := &nullIO{}
	pool, err := buffer.New(eng, buffer.Config{Frames: 1024, PageBytes: 16 * storage.KB}, io, io)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2))
	ids := make([]buffer.PageID, n)
	for i := range ids {
		if hit {
			ids[i] = buffer.PageID(rng.Intn(512))
		} else {
			ids[i] = buffer.PageID(i % 4096)
		}
	}
	var gerr error
	get := func(p *sim.Proc, id buffer.PageID) {
		fr, err := pool.Get(p, id)
		if err != nil {
			gerr = err
			return
		}
		pool.Unpin(fr)
	}
	if hit {
		eng.Go("warm", func(p *sim.Proc) {
			for id := buffer.PageID(0); id < 512; id++ {
				get(p, id)
			}
		})
		eng.Run()
	}
	s0 := *pool.Stats()
	eng.Go("reader", func(p *sim.Proc) {
		for _, id := range ids {
			if gerr == nil {
				get(p, id)
			}
		}
	})
	m.time(eng.Run)
	if gerr != nil {
		return gerr
	}
	s := pool.Stats()
	if hit {
		return want("hits", s.Hits-s0.Hits, int64(n))
	}
	if err := want("misses", s.Misses-s0.Misses, int64(n)); err != nil {
		return err
	}
	return want("evictions", s.Evictions, int64(n-1024))
}

// rungIndexSearch: index.Tree.SearchPath for n seeded ranks in a
// one-million-row tree.
func rungIndexSearch(m *meter, n int) error {
	const rows = 1_000_000
	t, err := index.New(index.Config{PageBytes: 16 * storage.KB, RowBytes: 300, MaxRows: rows}, 0)
	if err != nil {
		return err
	}
	t.SetRows(rows)
	rng := rand.New(rand.NewSource(3))
	ranks := make([]int64, n)
	for i := range ranks {
		ranks[i] = rng.Int63n(rows)
	}
	var pages int64
	m.time(func() {
		for _, r := range ranks {
			pages += int64(len(t.SearchPath(r)))
		}
	})
	return want("pages on search paths", pages, int64(n)*int64(t.Depth()))
}

// rungWALAppend: wal.Log.Append of n seeded-size records.
func rungWALAppend(m *meter, n int) error {
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		return err
	}
	log, err := wal.New(eng, host.NewFS(dev, false), wal.Config{FilePages: 1024})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(4))
	sizes := make([]int, n)
	var bytes int64
	for i := range sizes {
		sizes[i] = 64 + rng.Intn(256)
		bytes += int64(sizes[i])
	}
	var last uint64
	m.time(func() {
		for _, s := range sizes {
			last = log.Append(s)
		}
	})
	if err := want("records", log.Records, int64(n)); err != nil {
		return err
	}
	if err := want("last LSN", int64(last), int64(n)); err != nil {
		return err
	}
	return want("bytes logged", log.BytesLogged, bytes)
}

// serveRig is a front domain plus one R-way replica group of timing-mode
// DuraSSD stores over keys 0..1023.
type serveRig struct {
	c      *sim.Cluster
	front  *sim.Domain
	keys   []uint64
	stores []*serve.Store
}

func newServeRig(replicas int) (*serveRig, error) {
	r := &serveRig{c: sim.NewCluster(1+replicas, 100*time.Microsecond, 1)}
	r.front = r.c.Domain(0)
	for i := 0; i < 1024; i++ {
		r.keys = append(r.keys, uint64(i))
	}
	for i := 0; i < replicas; i++ {
		dom := r.c.Domain(1 + i)
		dev, err := ssd.New(dom.Engine(), ssd.DuraSSD(16))
		if err != nil {
			r.c.Close()
			return nil, err
		}
		st, err := serve.OpenStore(dom, dev, r.keys, serve.StoreConfig{})
		if err != nil {
			r.c.Close()
			return nil, err
		}
		r.stores = append(r.stores, st)
	}
	return r, nil
}

func seededKeys(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = uint64(rng.Intn(1024))
	}
	return ks
}

// rungStorePut: serve.Store.Put of n seeded keys on one store, called in
// the store's own domain.
func rungStorePut(m *meter, n int) error {
	r, err := newServeRig(1)
	if err != nil {
		return err
	}
	defer r.c.Close()
	st := r.stores[0]
	ks := seededKeys(5, n)
	var perr error
	st.Domain().Go("putter", func(p *sim.Proc) {
		for _, k := range ks {
			if perr == nil {
				_, perr = st.Put(p, k)
			}
		}
	})
	m.time(r.c.Run)
	if perr != nil {
		return perr
	}
	puts, _, _ := st.Counters()
	if err := want("store puts", puts, int64(n)); err != nil {
		return err
	}
	var vers int64
	for _, k := range r.keys {
		vers += int64(st.Version(k))
	}
	return want("sum of key versions", vers, int64(n))
}

// rungGroupPut: serve.Group.Put of n seeded keys through an R=3, W=2
// group from the front domain.
func rungGroupPut(m *meter, n int) error {
	r, err := newServeRig(3)
	if err != nil {
		return err
	}
	defer r.c.Close()
	g, err := serve.NewGroup(0, r.front, r.stores, serve.GroupConfig{Quorum: 2})
	if err != nil {
		return err
	}
	ks := seededKeys(6, n)
	var perr error
	var acked int64
	r.front.Go("putter", func(p *sim.Proc) {
		for _, k := range ks {
			if perr != nil {
				return
			}
			if _, perr = g.Put(p, k); perr == nil {
				acked++
			}
		}
	})
	m.time(r.c.Run)
	if perr != nil {
		return perr
	}
	if err := want("quorum acks", acked, int64(n)); err != nil {
		return err
	}
	for i, st := range r.stores {
		puts, _, _ := st.Counters()
		if err := want(fmt.Sprintf("replica %d puts", i), puts, int64(n)); err != nil {
			return err
		}
	}
	return nil
}

// rungServerGet: serve.Server.Get of n seeded keys through the gateway
// over one R=3 group, unthrottled.
func rungServerGet(m *meter, n int) error {
	r, err := newServeRig(3)
	if err != nil {
		return err
	}
	defer r.c.Close()
	srv, err := serve.NewReplicated(r.front, [][]*serve.Store{r.stores}, serve.Config{Group: serve.GroupConfig{Quorum: 2}})
	if err != nil {
		return err
	}
	srv.BuildFilters([][]uint64{r.keys})
	acct := serve.NewTenantAccount("ladder", 1_000_000_000, 1_000_000)
	ks := seededKeys(7, n)
	var gerr error
	r.front.Go("getter", func(p *sim.Proc) {
		for _, k := range ks {
			if gerr == nil {
				_, gerr = srv.Get(p, acct, k)
			}
		}
	})
	m.time(r.c.Run)
	if gerr != nil {
		return gerr
	}
	return want("answered gets", acct.Ops, int64(n))
}
