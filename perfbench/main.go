// Command perfbench is the repository benchmark: three fixed, seeded,
// closed-loop workloads (tpcc, serve-chaos, crash-matrix) driven through
// the simulator's public API from one process with one sim worker.
//
// Usage:
//
//	perfbench --workload <tpcc|serve-chaos|crash-matrix> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off. With --trace 1 it runs the layer ladder, then alternates untraced
// and traced batches and prints the per-layer metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The line before it records the host, the seed and the
// sample counts. See README.md for the metric → layer → workload map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose simulated outputs are pinned (pins.go).
const defaultSeed = 1

// setupReps is how many timed set-ups each run makes; setup_s is their
// median. The first setupWarmups set-ups of the child process run first
// and are not timed: they pay its one-off heap growth.
const (
	setupReps    = 9
	setupWarmups = 3
)

// minBatches is the least number of batches a run measures, however short
// --seconds is.
const minBatches = 3

// batch is one fresh rig driven to completion, as a child process
// reports it.
type batch struct {
	RunNS  int64            `json:"run_ns"`  // host time of the timed call
	Ops    int64            `json:"ops"`     // client operations completed in the call
	AllocB uint64           `json:"alloc_b"` // bytes allocated over set-up plus run
	PeakB  uint64           `json:"peak_b"`  // peak live heap
	CPU    map[string]int64 `json:"cpu"`     // traced: CPU ns by module
	Out    *outcome         `json:"out"`
	RefNS  int64            `json:"ref_ns"` // reference loop time before the batch
}

// opsPerS is the batch's throughput in host time rescaled to the nominal
// host (hostspeed.go).
func (b *batch) opsPerS() float64 {
	return float64(b.Ops) / nominal(time.Duration(b.RunNS), time.Duration(b.RefNS)).Seconds()
}

// rawOpsPerS is the throughput in plain host time.
func (b *batch) rawOpsPerS() float64 { return float64(b.Ops) / (float64(b.RunNS) / 1e9) }

// outcome is what a batch produced in virtual time, and its checks.
type outcome struct {
	// Fingerprint must repeat exactly across batches of one seed.
	Fingerprint string   `json:"fingerprint"`
	Attempted   int64    `json:"attempted"` // client operations issued
	Failed      int64    `json:"failed"`    // operations whose check failed
	Problems    []string `json:"problems"`
	// Virtual is the deterministic, workload-level per-layer block:
	// sim_ops_per_s, sim_p50_ms, sim_p99_ms, sim_samples, failed_pct.
	Virtual map[string]float64 `json:"virtual"`
	// Layers holds per-layer counters read from public accessors; filled
	// only on traced batches.
	Layers map[string]float64 `json:"layers"`
}

func (o *outcome) failf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// workload is one of the benchmark's three closed loops.
type workload struct {
	name string
	// setup builds what the workload builds before its first operation
	// and discards it; setup_s is the median of several.
	setup func(seed int64) error
	// run builds a fresh rig and drives it to completion. It returns the
	// host time of the timed call and the operations it completed.
	run func(seed int64, traced bool) (time.Duration, int64, *outcome, error)
}

var workloads = []workload{tpccWorkload, serveChaosWorkload, crashMatrixWorkload}

func main() {
	name := flag.String("workload", "", "tpcc, serve-chaos or crash-matrix")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement window in host seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	child := flag.String("child", "", "internal: run one set-up series, batch or ladder and print it as JSON")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(*child, w, *seed, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", w.name, *child, err)
			os.Exit(1)
		}
		return
	}
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, window)
	} else {
		res, err = plainRun(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(w.name, *seed, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// result is one run's report.
type result struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	notes             map[string]any // host record and sample counts
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes the record line and the result line. A metric that is not
// a finite number fails the run instead of printing a result.
func (r *result) print(name string, seed int64, trace int) error {
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	rec := map[string]any{
		"workload": name,
		"seed":     seed,
		"trace":    trace,
		"host":     hostRecord(),
		"problems": r.problems,
	}
	for k, v := range r.notes {
		rec[k] = v
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	fmt.Println(string(out))
	return nil
}

// hostRecord names the machine a result was measured on.
func hostRecord() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// The parent process never builds a rig. Each set-up series, batch and
// ladder runs in a child process of its own: rigs leave parked simulator
// processes behind that the collector cannot free, so a fresh process per
// batch keeps one batch's heap figures independent of the batches before
// it.

// childArgs are the flags a child process runs with.
func childArgs(mode string, w *workload, seed int64, traced bool) []string {
	t := "0"
	if traced {
		t = "1"
	}
	return []string{"--child", mode, "--workload", w.name, "--seed", fmt.Sprint(seed), "--trace", t}
}

// spawn runs one child to completion and decodes the JSON it prints.
func spawn(args []string, into any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args[1], err)
	}
	return json.Unmarshal(out, into)
}

// runChild is the child side: run one mode and print its JSON.
func runChild(mode string, w *workload, seed int64, traced bool) error {
	var v any
	var err error
	switch mode {
	case "setup":
		v, err = measureSetups(w, seed)
	case "batch":
		v, err = runBatch(w, seed, traced)
	case "ladder":
		v, err = runLadder()
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// measureSetups times setupReps set-ups, in host seconds. Set-ups are too
// short for the reference loop to track the host's speed across them, so
// setup_s stays in plain host time.
func measureSetups(w *workload, seed int64) ([]float64, error) {
	var xs []float64
	for i := 0; i < setupWarmups+setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i >= setupWarmups {
			xs = append(xs, time.Since(t0).Seconds())
		}
	}
	return xs, nil
}

// runBatch runs one batch with allocation and peak-heap accounting, and
// with a CPU profile when traced.
func runBatch(w *workload, seed int64, traced bool) (*batch, error) {
	ref := referenceTime()
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	peak := startPeakHeap()
	d, ops, out, err := w.run(seed, traced)
	peakB := peak.stop()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	b := &batch{RefNS: ref.Nanoseconds(), RunNS: d.Nanoseconds(), Ops: ops, AllocB: m1.TotalAlloc - m0.TotalAlloc, PeakB: peakB, Out: out}
	if traced {
		if b.CPU, err = cpuByModule(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// batches runs batch children, alternating the traced flags given, until
// the window is spent and every flag has at least minPer batches.
func batches(w *workload, seed int64, start time.Time, window time.Duration, flags []bool, minPer int) ([]*batch, error) {
	var bs []*batch
	var walls []float64
	for i := 0; ; i++ {
		spent := time.Since(start) + time.Duration(median(walls)*float64(time.Second))
		if i >= minPer*len(flags) && spent > window {
			return bs, nil
		}
		t0 := time.Now()
		b := &batch{}
		if err := spawn(childArgs("batch", w, seed, flags[i%len(flags)]), b); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		bs = append(bs, b)
	}
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(w *workload, seed int64, window time.Duration) (*result, error) {
	start := time.Now()
	var setups []float64
	if err := spawn(childArgs("setup", w, seed, false), &setups); err != nil {
		return nil, err
	}
	bs, err := batches(w, seed, start, window, []bool{false}, minBatches)
	if err != nil {
		return nil, err
	}
	res := &result{notes: map[string]any{}}
	res.tally(bs)
	var opsPerS, rawOpsPerS, refMS, alloc, peak []float64
	for _, b := range bs {
		opsPerS = append(opsPerS, b.opsPerS())
		rawOpsPerS = append(rawOpsPerS, b.rawOpsPerS())
		refMS = append(refMS, float64(b.RefNS)/1e6)
		alloc = append(alloc, float64(b.AllocB)/1e6)
		peak = append(peak, float64(b.PeakB)/1e6)
	}
	res.metrics = map[string]metric{
		"ops_per_s":    {median(opsPerS), "ops/s"},
		"setup_s":      {median(setups), "s"},
		"heap_peak_mb": {median(peak), "MB"},
		"alloc_mb":     {median(alloc), "MB"},
	}
	res.notes["batches"] = len(bs)
	res.notes["ops_per_batch"] = bs[0].Ops
	res.notes["ops_per_s_all"] = opsPerS
	res.notes["raw_ops_per_s_all"] = rawOpsPerS
	res.notes["ref_ms_all"] = refMS
	res.notes["setup_s_all"] = setups
	res.notes["alloc_mb_all"] = alloc
	res.notes["heap_peak_mb_all"] = peak
	res.notes["virtual"] = bs[0].Out.Virtual
	res.notes["fingerprint"] = bs[0].Out.Fingerprint
	return res, nil
}

// tally folds every batch's checks into the result, and checks that all
// batches of the seed produced the same simulated outputs.
func (r *result) tally(bs []*batch) {
	for i, b := range bs {
		r.attempted += b.Out.Attempted
		r.failed += b.Out.Failed
		for _, p := range b.Out.Problems {
			r.problems = append(r.problems, fmt.Sprintf("batch %d: %s", i, p))
		}
		if b.Out.Fingerprint != bs[0].Out.Fingerprint {
			r.problems = append(r.problems, fmt.Sprintf("batch %d: simulated outputs differ from batch 0 (%s vs %s)",
				i, b.Out.Fingerprint, bs[0].Out.Fingerprint))
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
