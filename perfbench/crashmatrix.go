package main

import (
	"fmt"
	"strings"
	"time"

	"durassd/internal/crashpoint"
	"durassd/internal/faults"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
)

// The crash-matrix workload is all 11 crashpoint.Matrix campaigns at the
// `crashtest -explore` defaults. Every replayed point rebuilds a rig,
// cuts power, dumps the durable cache, reboots, recovers and audits.
const (
	crashPoints  = 12  // crashtest -explore -points default
	crashUpdates = 160 // crashtest -explore -updates default
)

var crashMatrixWorkload = workload{
	name:  "crash-matrix",
	setup: setupCrashMatrix,
	run:   runCrashMatrix,
}

// setupCrashMatrix builds the campaign set and, for each campaign, the
// devices and host filesystems of its rig: what every replayed point
// rebuilds before its first write. Explore hides the rigs it builds, so
// the benchmark builds the same devices through the public constructors.
func setupCrashMatrix(seed int64) error {
	for _, c := range crashpoint.Matrix(crashPoints, crashUpdates, seed) {
		var kinds []faults.DeviceKind
		switch {
		case c.Burst != nil:
			for i := 0; i < c.Burst.Shards; i++ {
				kinds = append(kinds, faults.DuraSSD)
			}
			for _, i := range c.Burst.Volatile {
				kinds[i] = faults.SSDA
			}
		case c.Replica != nil:
			k := faults.DuraSSD
			if c.Replica.Volatile {
				k = faults.SSDA
			}
			for i := 0; i < c.Replica.Groups*c.Replica.Replicas; i++ {
				kinds = append(kinds, k)
			}
		default:
			kinds = append(kinds, c.Scenario.Device)
		}
		eng := sim.New()
		for _, k := range kinds {
			prof, err := faults.Profile(k)
			if err != nil {
				return err
			}
			dev, err := ssd.New(eng, prof)
			if err != nil {
				return err
			}
			host.NewFS(dev, c.Scenario.Barrier)
		}
	}
	return nil
}

// expectLoss reports whether a campaign is a volatile control, which must
// lose acknowledged writes. The engine rows on SSD-A in the fast
// configuration tally that loss as Lost/Torn; the serving rows tally it on
// their volatile members, as VolatileLost/VolatileTorn, and their
// Lost/Torn/Unsafe stay the DuraSSD claim, which must hold.
func expectLoss(c crashpoint.Campaign) (loses, inClaim bool) {
	switch {
	case c.Burst != nil:
		return true, false
	case c.Replica != nil:
		return c.Replica.Volatile, false
	}
	loses = c.Scenario.Device == faults.SSDA && !c.Scenario.Barrier
	return loses, loses
}

func runCrashMatrix(seed int64, traced bool) (time.Duration, int64, *outcome, error) {
	cs := crashpoint.Matrix(crashPoints, crashUpdates, seed)
	t0 := time.Now()
	var rs []*crashpoint.Result
	for _, c := range cs {
		r, err := crashpoint.Explore(c)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("crash-matrix %s: %w", c.Name(), err)
		}
		rs = append(rs, r)
	}
	d := time.Since(t0)

	o := &outcome{}
	var points, unsafe, lost, volLost int
	var digests []string
	for i, r := range rs {
		c := cs[i]
		n := len(r.Points)
		points += n
		unsafe += r.Unsafe
		lost += r.Lost
		volLost += r.VolatileLost
		digests = append(digests, r.Digest)
		for _, oc := range r.Outcomes {
			if oc.Verdict != nil && oc.Verdict.Err != nil {
				o.failf("%s %s at %v: %v", r.Name, oc.Point.Kind, oc.Point.At, oc.Verdict.Err)
				o.Failed++
			}
		}
		if n == 0 {
			o.failf("%s: no crash points", r.Name)
		}
		loses, inClaim := expectLoss(c)
		lossy := r.VolatileLost+r.VolatileTorn > 0
		if inClaim {
			lossy = r.Lost+r.Torn > 0
		}
		if loses && !lossy {
			o.failf("%s: volatile control lost no acknowledged write", r.Name)
			o.Failed += int64(n)
		}
		if !inClaim && (r.Unsafe != 0 || r.Lost != 0 || r.Torn != 0) {
			o.failf("%s: %d unsafe points, %d lost, %d torn", r.Name, r.Unsafe, r.Lost, r.Torn)
			o.Failed += int64(max(r.Unsafe, 1))
		}
	}
	o.Attempted = int64(points)
	o.Fingerprint = fmt.Sprintf("points=%d lost=%d vol=%d digests=%s", points, lost, volLost, shortDigests(digests))
	if seed == defaultSeed {
		pinned(o, "crash-matrix digests", strings.Join(digests, ","), strings.Join(pinCrashDigests, ","))
	}
	o.Virtual = map[string]float64{
		"sim_ops_per_s": 0, // no client operations in virtual time
		"sim_p50_ms":    0,
		"sim_p99_ms":    0,
		"sim_samples":   0,
		"failed_pct":    100 * float64(o.Failed) / float64(points),
	}
	if traced {
		o.Layers = map[string]float64{
			"crashpoint.points":    float64(points),
			"crashpoint.replay_ms": ms(d) / float64(points),
			"crashpoint.unsafe":    float64(unsafe),
			"crashpoint.lost":      float64(lost),
			"crashpoint.vol_lost":  float64(volLost),
		}
	}
	return d, int64(points), o, nil
}

func shortDigests(ds []string) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d[:8])
	}
	return b.String()
}
