package main

import "time"

// Host speed on a shared machine drifts by 10-20% over minutes as other
// tenants come and go, more than the bounds a speed change has to be
// judged by. Each batch's child process therefore times a fixed reference
// loop just before the batch, and ops_per_s is rescaled to a host on which
// that loop takes refNominal. The loop is the benchmark's own code and
// pure CPU work: a pointer chase through a 256 KB table mixed with
// xorshift arithmetic. It does not allocate, so neither the collector nor
// any change to the program can move it. The run record keeps the plain
// host-time throughput and the reference times.

// refNominal is the reference loop's time on the nominal host.
const refNominal = 30 * time.Millisecond

// refSink keeps the reference loop's result live.
var refSink uint64

// referenceOnce runs the reference loop once and returns its host time.
func referenceOnce() time.Duration {
	t0 := time.Now()
	table := make([]uint32, 1<<16)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range table {
		table[i] = uint32(next()) & (1<<16 - 1)
	}
	var sum uint64
	j := uint32(0)
	for i := 0; i < 10_000_000; i++ {
		j = table[j]
		sum += uint64(j) ^ next()
	}
	refSink = sum
	return time.Since(t0)
}

// referenceTime is the fastest of three runs of the reference loop: the
// host's current speed, with one-off interruptions filtered out.
func referenceTime() time.Duration {
	best := referenceOnce()
	for i := 0; i < 2; i++ {
		best = min(best, referenceOnce())
	}
	return best
}

// nominal rescales a host time measured while the reference loop took
// ref to the nominal host.
func nominal(d, ref time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}
