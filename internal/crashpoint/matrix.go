package crashpoint

import (
	"errors"
	"fmt"

	"durassd/internal/faults"
	"durassd/internal/serve"
)

// Matrix returns the canonical exploration campaign set that
// `crashtest -explore` runs: both engines crossed with the three host
// configurations the paper contrasts — DuraSSD in the fast configuration
// (barriers off, torn-page protection off), the volatile-cache SSD-A in
// the same fast configuration (where it must fail), and SSD-A in the
// safe-but-slow configuration (where software protection saves it) — plus
// a wear-out cell: DuraSSD in the fast configuration with bad-block
// retirement armed, so the exploration also cuts power mid-migration.
//
// The ninth campaign is MidBurst: a multi-tenant write burst through the
// internal/serve gateway over four shards, two DuraSSD and two volatile,
// all in the fast configuration, with the cut hitting every shard at the
// derived instant. It extends the claim one layer up: an ack returned
// through the serving layer is durable exactly when the shard underneath
// has a durable cache.
//
// Keeping the matrix here, rather than inlined in cmd/crashtest, lets the
// determinism regression test replay the exact same campaign set twice and
// assert the full digest set is byte-identical.
func Matrix(points, updates int, seed int64) []Campaign {
	var out []Campaign
	for _, eng := range []faults.EngineKind{faults.EngineInnoDB, faults.EnginePgSQL} {
		for _, cell := range []struct {
			dev              faults.DeviceKind
			barrier, protect bool
			wear             bool
		}{
			{faults.DuraSSD, false, false, false},
			{faults.SSDA, false, false, false},
			{faults.SSDA, true, true, false},
			{faults.DuraSSD, false, false, true},
		} {
			out = append(out, Campaign{
				Scenario: faults.Scenario{
					Device: cell.dev, Engine: eng,
					Barrier: cell.barrier, DoubleWrite: cell.protect,
					Clients: 4, Updates: updates, Seed: seed,
					WearOut: cell.wear,
				},
				MaxPoints: points,
				DumpTears: 2,
			})
		}
	}
	out = append(out, Campaign{
		Burst: &serve.BurstSpec{
			Shards:   4,
			Volatile: []int{1, 3},
			Updates:  updates,
			Seed:     seed,
		},
		MaxPoints: points,
	})
	// The tenth and eleventh campaigns are ReplicaLoss: the same write burst
	// through R=3 W=2 replicated DuraSSD shard groups, with a single replica
	// of every group cut at the derived instant (the victim rotating across
	// points) plus a mid-catch-up double fault. Quorum-acked writes must
	// survive every point. The R=1 volatile control demonstrates the
	// opposite: no quorum, no durable cache, acked writes vanish — tallied
	// as VolLost, the expected control outcome.
	out = append(out, Campaign{
		Replica: &serve.ReplicaSpec{
			Groups: 2, Replicas: 3, Quorum: 2,
			Updates: updates, Seed: seed,
		},
		MaxPoints: points,
	})
	out = append(out, Campaign{
		Replica: &serve.ReplicaSpec{
			Groups: 2, Replicas: 1, Quorum: 1, Volatile: true,
			Updates: updates, Seed: seed,
		},
		MaxPoints: points,
	})
	return out
}

// Check returns every way r breaks the outcome campaign c is expected to
// have, or nil. Every point must audit without error. A claim row must
// have no unsafe point and lose and tear nothing: DuraSSD in any
// configuration, SSD-A with barriers on, and the DuraSSD groups of the
// serving campaigns. A volatile control must lose acknowledged writes:
// SSD-A with barriers off (in Lost/Torn, its only tallies), MidBurst's
// volatile shards and the R=1 volatile ReplicaLoss row (in
// VolatileLost/VolatileTorn, apart from their claim tallies).
func (c Campaign) Check(r *Result) error {
	var errs []error
	for _, o := range r.Outcomes {
		if o.Verdict.Err != nil {
			errs = append(errs, fmt.Errorf("%s at %v: %w", o.Point.Kind, o.Point.At, o.Verdict.Err))
		}
	}
	loses, inClaim := c.control()
	lost := r.VolatileLost + r.VolatileTorn
	if inClaim {
		lost = r.Lost + r.Torn
	}
	if loses && lost == 0 {
		errs = append(errs, errors.New("volatile control lost no acknowledged write"))
	}
	if !inClaim && (r.Unsafe != 0 || r.Lost != 0 || r.Torn != 0) {
		errs = append(errs, fmt.Errorf("claim broken: %d unsafe points, %d lost, %d torn", r.Unsafe, r.Lost, r.Torn))
	}
	return errors.Join(errs...)
}

// control reports whether the campaign is a volatile control, which must
// lose, and whether that loss lands in its claim tallies (engine rows) or
// in its volatile ones (serving rows).
func (c Campaign) control() (loses, inClaim bool) {
	switch {
	case c.Burst != nil:
		return c.Burst.Volatile == nil || len(c.Burst.Volatile) > 0, false
	case c.Replica != nil:
		return c.Replica.Volatile && c.Replica.Replicas == 1, false
	}
	loses = c.Scenario.Device == faults.SSDA && !c.Scenario.Barrier
	return loses, loses
}
