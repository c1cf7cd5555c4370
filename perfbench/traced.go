package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// cpuModules are the modules whose host-time share a traced run reports;
// samples in any other module count as other.cpu_share.
var cpuModules = []string{
	"sim", "buffer", "index", "wal", "innodb", "tpcc", "host", "iotrace",
	"devfront", "ssd", "core", "ftl", "nand", "serve", "crashpoint", "faults",
	"pgsql", "stats", "other",
}

// perLayer are the metrics of a traced run. A metric whose layer a
// workload does not exercise, or whose objects its public entry point
// hides, reads 0 on that workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Workload level, virtual time and outcomes (deterministic).
		{"sim_ops_per_s", "ops/s", "higher"},
		{"sim_p50_ms", "ms", "lower"},
		{"sim_p99_ms", "ms", "lower"},
		{"sim_samples", "count", "higher"},
		{"failed_pct", "%", "lower"},
		{"trace_overhead_pct", "%", "lower"},
		// sim
		{"sim.events", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		// dbsim/buffer, dbsim/wal
		{"buffer.gets", "count", "lower"},
		{"buffer.miss_ratio", "ratio", "lower"},
		{"buffer.evictions", "count", "lower"},
		{"buffer.dirty_evictions", "count", "lower"},
		{"wal.log_bytes", "B", "lower"},
		// host: the device boundary of the benchmark's own tpcc rig
		{"host.dev_reads", "count", "lower"},
		{"host.dev_writes", "count", "lower"},
		{"host.dev_flushes", "count", "lower"},
		{"host.dev_write_p99_us", "us", "lower"},
		{"host.dev_flush_p99_us", "us", "lower"},
		// ssd, core, ftl, nand
		{"ssd.write_cmds", "count", "lower"},
		{"ssd.flush_cmds", "count", "lower"},
		{"core.cache_hits", "count", "higher"},
		{"core.cache_evicts", "count", "lower"},
		{"ftl.gc_programs", "count", "lower"},
		{"nand.programs", "count", "lower"},
		{"nand.erases", "count", "lower"},
		{"nand.write_amp", "ratio", "lower"},
		// serve
		{"serve.answered", "count", "higher"},
		{"serve.shed", "count", "lower"},
		{"serve.retried", "count", "lower"},
		{"serve.throttled", "count", "lower"},
		{"serve.unavailable", "count", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.hedges", "count", "lower"},
		{"serve.breaker_opens", "count", "lower"},
		{"serve.catchup_keys", "count", "lower"},
		// crashpoint
		{"crashpoint.points", "count", "higher"},
		{"crashpoint.replay_ms", "ms", "lower"},
		{"crashpoint.unsafe", "count", "lower"},
		{"crashpoint.lost", "count", "lower"},
		{"crashpoint.vol_lost", "count", "higher"},
	}
	for _, l := range iotraceLayerNames {
		defs = append(defs, metricDef{"iotrace." + l + "_p99_us", "us", "lower"})
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{m + ".cpu_share", "%", "lower"})
	}
	for _, n := range ladderNames() {
		unit := "ns"
		if strings.Contains(n, "_allocs") {
			unit = "allocs"
		}
		defs = append(defs, metricDef{n, unit, "lower"})
	}
	return defs
}()

// tracedRun runs the layer ladder, then alternates untraced and traced
// batches, and reports the per-layer metrics. Tracing means the CPU
// profile, iotrace span recording and, on tpcc, the device taps; the
// untraced batches give trace_overhead_pct.
func tracedRun(w *workload, seed int64, window time.Duration) (*result, error) {
	start := time.Now()
	m := map[string]float64{}
	if err := spawn(childArgs("ladder", w, seed, false), &m); err != nil {
		return nil, err
	}
	bs, err := batches(w, seed, start, window, []bool{false, true}, 2)
	if err != nil {
		return nil, err
	}
	res := &result{notes: map[string]any{}}
	res.tally(bs) // tracing must not change any simulated output
	for k, v := range bs[0].Out.Virtual {
		m[k] = v
	}

	var plain, traced []float64
	layers := map[string][]float64{}
	cpu := map[string]int64{}
	var cpuTotal int64
	for i, b := range bs {
		if i%2 == 0 {
			plain = append(plain, b.opsPerS())
			continue
		}
		traced = append(traced, b.opsPerS())
		for k, v := range b.Out.Layers {
			layers[k] = append(layers[k], v)
		}
		for mod, ns := range b.CPU {
			cpu[mod] += ns
			cpuTotal += ns
		}
	}
	for k, vs := range layers {
		m[k] = median(vs)
	}
	if cpuTotal == 0 {
		res.problems = append(res.problems, "the CPU profile recorded no samples")
		cpuTotal = 1
	}
	for mod, ns := range cpu {
		if !slices.Contains(cpuModules, mod) {
			mod = "other"
		}
		m[mod+".cpu_share"] += 100 * float64(ns) / float64(cpuTotal)
	}
	m["trace_overhead_pct"] = 100 * (median(plain)/median(traced) - 1)

	res.metrics = map[string]metric{}
	for _, d := range perLayer {
		res.metrics[d.Name] = metric{m[d.Name], d.Unit}
		delete(m, d.Name)
	}
	if len(m) > 0 {
		var extra []string
		for k := range m {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		res.problems = append(res.problems, fmt.Sprintf("undeclared per-layer metrics %v", extra))
	}
	res.notes["batches"] = len(bs)
	res.notes["ops_per_s_untraced"] = plain
	res.notes["ops_per_s_traced"] = traced
	res.notes["cpu_profile_ms"] = cpuTotal / 1e6
	return res, nil
}
