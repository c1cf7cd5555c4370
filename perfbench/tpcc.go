package main

import (
	"fmt"
	"time"

	"durassd/internal/host"
	"durassd/internal/innodb"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/stats"
	"durassd/internal/storage"
	"durassd/internal/workload/tpcc"
)

// The tpcc workload is the Table 4 "Barrier On / 16 KB" cell: InnoDB opens
// its data file O_DSYNC, data and redo log each sit on their own DuraSSD,
// 4 warehouses (Scale 256) and 64 closed-loop clients, an 8 MB buffer pool
// against ~250 MB of table data.
const (
	tpccScale    = 256
	tpccClients  = 64
	tpccRequests = 25_000
	tpccWarmup   = tpccRequests / 4
	tpccPage     = 16 * storage.KB
)

var tpccWorkload = workload{
	name: "tpcc",
	setup: func(seed int64) error {
		_, err := buildTPCC(seed, false)
		return err
	},
	run: runTPCC,
}

// tpccRig is the benchmark's own Table 4 rig, built from ssd.New,
// host.NewFS, innodb.Open and tpcc.Setup.
type tpccRig struct {
	eng    *sim.Engine
	devs   []*ssd.Device
	taps   []*tapDevice // traced batches only
	engine *innodb.Engine
	bench  *tpcc.Bench
	events *eventDigest
}

func buildTPCC(seed int64, traced bool) (*tpccRig, error) {
	r := &tpccRig{eng: sim.New(), events: &eventDigest{}}
	var fss []*host.FS
	for i, scale := range []int{2, 16} { // data device, log device
		dev, err := ssd.New(r.eng, ssd.DuraSSD(scale))
		if err != nil {
			return nil, err
		}
		member := byte(i)
		dev.Registry().SetEventFn(func(k iotrace.EventKind, at time.Duration) { r.events.add(member, k, at) })
		r.devs = append(r.devs, dev)
		var d storage.Device = dev
		if traced {
			dev.Registry().EnableTracing(true)
			tap := &tapDevice{Device: dev}
			r.taps = append(r.taps, tap)
			d = tap
		}
		fss = append(fss, host.NewFS(d, true))
	}
	data, logDev := r.devs[0], r.devs[1]
	warehouses := max(1000/tpccScale, 4)
	var err error
	r.engine, err = innodb.Open(r.eng, fss[0], fss[1], innodb.Config{
		PageBytes:    tpccPage,
		BufferBytes:  2 * storage.GB / tpccScale,
		ODSync:       true,
		DataPages:    data.Pages() * int64(data.PageSize()) / tpccPage * 9 / 10,
		LogFilePages: logDev.Pages() / 4,
	})
	if err != nil {
		return nil, err
	}
	r.bench, err = tpcc.Setup(r.eng, r.engine, tpcc.Config{
		Warehouses: warehouses,
		Clients:    tpccClients,
		Requests:   tpccRequests,
		Warmup:     tpccWarmup,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// tpccExecuted is the number of transactions one run executes, warm-up
// included: every client runs its equal share.
const tpccExecuted = (tpccRequests + tpccWarmup) / tpccClients * tpccClients

// tpccMeasured is the number of measured (post-warm-up) transactions.
const tpccMeasured = tpccExecuted - tpccWarmup/tpccClients*tpccClients

func runTPCC(seed int64, traced bool) (time.Duration, int64, *outcome, error) {
	r, err := buildTPCC(seed, traced)
	if err != nil {
		return 0, 0, nil, err
	}
	defer r.engine.Close()
	t0 := time.Now()
	res, err := r.bench.Run(r.eng)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("tpcc run: %w", err)
	}

	no := res.Lat[tpcc.NewOrder]
	o := &outcome{
		Attempted: tpccExecuted,
		Virtual: map[string]float64{
			"sim_ops_per_s": res.TPS(),
			"sim_p50_ms":    ms(no.Percentile(50)),
			"sim_p99_ms":    ms(no.Percentile(99)),
			"sim_samples":   float64(no.Count()),
			"failed_pct":    0,
		},
	}
	tpmC := fmt.Sprintf("%.3f", res.TpmC())
	o.Fingerprint = fmt.Sprintf("txns=%d tpmC=%s events=%d/%016x", res.Total, tpmC, r.events.n, r.events.h)
	if res.Total != tpccMeasured {
		o.failf("tpcc: %d measured transactions, want %d", res.Total, tpccMeasured)
	}
	if res.NewOrders == 0 || res.Elapsed <= 0 {
		o.failf("tpcc: no NewOrder transactions in %v of virtual time", res.Elapsed)
	}
	if seed == defaultSeed {
		pinned(o, "tpcc transactions", fmt.Sprint(res.Total), pinTPCCTotal)
		pinned(o, "tpcc tpmC", tpmC, pinTPCCTpmC)
		pinned(o, "tpcc device events", fmt.Sprintf("%d/%016x", r.events.n, r.events.h), pinTPCCEvents)
	}
	if o.Problems != nil {
		o.Failed = tpccExecuted
	}
	if traced {
		o.Layers = r.layers(d)
	}
	return d, tpccExecuted, o, nil
}

// layers reads the rig's per-layer counters after a traced run.
func (r *tpccRig) layers(d time.Duration) map[string]float64 {
	m := map[string]float64{}
	ps := r.engine.Pool().Stats()
	m["buffer.gets"] = float64(ps.Gets)
	m["buffer.miss_ratio"] = ps.MissRatio()
	m["buffer.evictions"] = float64(ps.Evictions)
	m["buffer.dirty_evictions"] = float64(ps.DirtyEvictions)
	m["wal.log_bytes"] = float64(r.engine.Log().BytesLogged)
	m["sim.events"] = float64(r.eng.Events())
	m["sim.ns_per_event"] = float64(d.Nanoseconds()) / float64(r.eng.Events())

	var wlat, flat stats.Hist
	var layer [iotrace.NumLayers]stats.Hist
	var st storage.Stats
	for i, dev := range r.devs {
		tap := r.taps[i]
		m["host.dev_reads"] += float64(tap.reads)
		m["host.dev_writes"] += float64(tap.writes)
		m["host.dev_flushes"] += float64(tap.flushes)
		wlat.Merge(&tap.writeLat)
		flat.Merge(&tap.flushLat)
		for l := range layer {
			layer[l].Merge(dev.Registry().LayerLatency(iotrace.Layer(l)))
		}
		s := dev.Stats()
		st.WriteCommands += s.WriteCommands
		st.FlushCommands += s.FlushCommands
		st.CacheHits += s.CacheHits
		st.CacheEvicts += s.CacheEvicts
		st.GCPrograms += s.GCPrograms
		st.NANDPrograms += s.NANDPrograms
		st.NANDErases += s.NANDErases
		st.PagesWritten += s.PagesWritten
	}
	m["host.dev_write_p99_us"] = us(wlat.Percentile(99))
	m["host.dev_flush_p99_us"] = us(flat.Percentile(99))
	for l := range layer {
		m["iotrace."+iotraceLayerNames[l]+"_p99_us"] = us(layer[l].Percentile(99))
	}
	m["ssd.write_cmds"] = float64(st.WriteCommands)
	m["ssd.flush_cmds"] = float64(st.FlushCommands)
	m["core.cache_hits"] = float64(st.CacheHits)
	m["core.cache_evicts"] = float64(st.CacheEvicts)
	m["ftl.gc_programs"] = float64(st.GCPrograms)
	m["nand.programs"] = float64(st.NANDPrograms)
	m["nand.erases"] = float64(st.NANDErases)
	m["nand.write_amp"] = st.WriteAmplification()
	return m
}

// iotraceLayerNames are the metric names of the eight iotrace layers, in
// iotrace.Layer order.
var iotraceLayerNames = [iotrace.NumLayers]string{
	"host_queue", "link", "firmware", "cache", "flush_drain", "ftl", "gc", "nand",
}

// tapDevice sits between host.FS and one device of the tpcc rig and
// records per-command counts and virtual latency at the device boundary.
type tapDevice struct {
	storage.Device
	reads, writes, flushes int64
	writeLat, flushLat     stats.Hist
}

func (t *tapDevice) Read(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, buf []byte) error {
	t.reads++
	return t.Device.Read(p, req, lpn, n, buf)
}

func (t *tapDevice) Write(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, data []byte) error {
	t0 := p.Now()
	err := t.Device.Write(p, req, lpn, n, data)
	t.writes++
	t.writeLat.Record(p.Now() - t0)
	return err
}

func (t *tapDevice) Flush(p *sim.Proc, req iotrace.Req) error {
	t0 := p.Now()
	err := t.Device.Flush(p, req)
	t.flushes++
	t.flushLat.Record(p.Now() - t0)
	return err
}

// PreloadPages forwards the initial bulk load (host.Preloader).
func (t *tapDevice) PreloadPages(lpn storage.LPN, n int64, data []byte) error {
	return t.Device.(host.Preloader).PreloadPages(lpn, n, data)
}

// eventDigest folds a device event stream into a 64-bit FNV-1a hash, cheap
// enough to run inside the timed call.
type eventDigest struct {
	n uint64
	h uint64
}

func (e *eventDigest) add(member byte, k iotrace.EventKind, at time.Duration) {
	if e.n == 0 {
		e.h = 14695981039346656037
	}
	e.n++
	x := uint64(at)<<8 | uint64(member)<<4 | uint64(k)
	for i := 0; i < 8; i++ {
		e.h ^= x & 0xff
		e.h *= 1099511628211
		x >>= 8
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
