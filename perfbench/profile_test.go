package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"durassd/internal/sim"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"durassd/internal/dbsim/buffer.(*Pool).Get":          "buffer",
		"durassd/internal/sim.(*Engine).Run":                 "sim",
		"durassd/internal/sim.(*ring[go.shape.int]).push":    "sim",
		"durassd/internal/workload/tpcc.(*Bench).doTx.func1": "tpcc",
		"runtime.mallocgc":                                   "",
		"main.runBatch":                                      "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLadderName(t *testing.T) {
	for stem, want := range map[string]string{
		"sim.event":    "sim.event_ns",
		"sim.epoch_w2": "sim.epoch_ns_w2",
	} {
		if got := ladderName(stem, "ns"); got != want {
			t.Errorf("ladderName(%q) = %q, want %q", stem, got, want)
		}
	}
}

// A real CPU profile of simulator work decodes, and the work lands on the
// sim module.
func TestCPUByModuleAttributesSimWork(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		eng := sim.New()
		noop := func() {}
		for i := 0; i < 10_000; i++ {
			eng.Schedule(time.Duration(i%97), noop)
		}
		eng.Run()
	}
	pprof.StopCPUProfile()
	cpu, err := cpuByModule(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	if total == 0 {
		t.Skip("profile recorded no samples")
	}
	if cpu["sim"]*2 < total {
		t.Errorf("sim got %d of %d profiled ns, want most of it: %v", cpu["sim"], total, cpu)
	}
}

func TestWalkRejectsTruncatedMessage(t *testing.T) {
	// Field 2, length-delimited, claims 5 bytes but carries 1.
	err := walk([]byte{0x12, 0x05, 0x01}, func(int, uint64, []byte) error { return nil })
	if err != errBadProto {
		t.Fatalf("walk = %v, want errBadProto", err)
	}
}
