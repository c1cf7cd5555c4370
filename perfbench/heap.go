package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// liveHeapMetric is the heap the last completed GC cycle marked live.
const liveHeapMetric = "/gc/heap/live:bytes"

// peakHeap tracks the largest live heap seen at the end of any GC cycle
// while it is armed. A finalizer on a sentinel object runs once after
// every cycle and re-arms itself, so the tracker needs no goroutine or
// polling of its own.
type peakHeap struct {
	peak   atomic.Uint64
	active atomic.Bool
}

// gcSentinel is large enough to escape the tiny allocator, whose objects
// share blocks and may never be finalized.
type gcSentinel struct{ _ [16]byte }

func startPeakHeap() *peakHeap {
	h := &peakHeap{}
	h.active.Store(true)
	h.arm()
	return h
}

func (h *peakHeap) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if h.active.Load() {
			h.observe()
			h.arm()
		}
	})
}

func (h *peakHeap) observe() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop disarms the tracker and returns the peak. A final collection
// makes sure at least one cycle is observed.
func (h *peakHeap) stop() uint64 {
	runtime.GC()
	h.observe()
	h.active.Store(false)
	return h.peak.Load()
}
