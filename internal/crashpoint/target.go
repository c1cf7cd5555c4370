package crashpoint

import (
	"fmt"
	"time"

	"durassd/internal/faults"
	"durassd/internal/iotrace"
	"durassd/internal/serve"
)

// target is the rig one campaign explores: Explore's single loop runs over
// it whatever the campaign kind.
type target struct {
	// header is the schedule digest's first line, before the event count.
	header string
	// progLat and eraseLat place the mid-program and mid-erase points.
	progLat, eraseLat time.Duration
	// probe runs the workload to completion without a cut, feeding every
	// device event to sink.
	probe func(sink func(member int, kind iotrace.EventKind, at time.Duration)) error
	// extra derives the points the schedule's features alone do not give.
	extra func(events []event, lastAck time.Duration) ([]Point, error)
	// replay runs the i-th point in execution order and audits it.
	replay func(i int, pt Point) (Outcome, error)
}

// newTarget builds the campaign's target.
func newTarget(c Campaign) (target, error) {
	switch {
	case c.Burst != nil:
		sp := *c.Burst
		return rigTarget(sp.Name(), sp.Seed, faults.DuraSSD, 1,
			func(pt Point, _ int, o serve.ReplicaOptions) (*serve.ReplicaVerdict, error) {
				run := sp
				run.CutAfter = pt.At
				return serve.RunBurst(run, o)
			})
	case c.Replica != nil:
		sp := *c.Replica
		dev := faults.DuraSSD
		if sp.Volatile {
			dev = faults.SSDA
		}
		replicas := sp.Replicas
		if replicas <= 0 {
			replicas = 3
		}
		return rigTarget(sp.Name(), sp.Seed, dev, replicas,
			func(pt Point, victim int, o serve.ReplicaOptions) (*serve.ReplicaVerdict, error) {
				run := sp
				run.CutAfter, run.CutReplica = pt.At, victim
				run.CutPeerDuringCatchup = pt.Kind == MidCatchup
				return serve.RunReplicaLoss(run, o)
			})
	}
	return engineTarget(c)
}

// engineTarget explores a single-engine database scenario. On a device
// that dumps its cache, the extra points tear the capacitor-powered dump.
func engineTarget(c Campaign) (target, error) {
	s := c.Scenario
	s.CutAfter = 0
	prof, err := faults.Profile(s.Device)
	if err != nil {
		return target{}, err
	}
	return target{
		header:   fmt.Sprintf("scenario=%s engine=%s seed=%d", s.Name(), s.Engine, s.Seed),
		progLat:  prof.NAND.ProgramLatency,
		eraseLat: prof.NAND.EraseLatency,
		probe: func(sink func(int, iotrace.EventKind, time.Duration)) error {
			_, err := faults.RunWith(s, faults.Options{NoCut: true, EventFn: sink})
			return err
		},
		// Mid-dump points: cut at the latest acknowledged write (maximal
		// dirty state), count the dump the firmware performs, then
		// enumerate tears.
		extra: func(_ []event, lastAck time.Duration) ([]Point, error) {
			if c.DumpTears <= 0 || !prof.Cache.Durable || lastAck <= 0 {
				return nil, nil
			}
			s2 := s
			s2.CutAfter = lastAck
			probe, err := faults.RunWith(s2, faults.Options{})
			if err != nil {
				return nil, fmt.Errorf("dump probe: %w", err)
			}
			n := int(probe.DumpPages)
			tears := min(c.DumpTears, n)
			var pts []Point
			for i := 0; i < tears; i++ {
				// Evenly spaced 1-based indices across the dump, last included.
				k := 1 + i*(n-1)/max(1, tears-1)
				if tears == 1 {
					k = n
				}
				pts = append(pts, Point{Kind: MidDump, At: lastAck, DumpTear: k})
			}
			return pts, nil
		},
		// The interrupted-erase fault is armed in every trial: it only
		// changes behaviour when an erase pulse is actually in flight at the
		// cut, and arming it uniformly keeps the fault surface maximal.
		replay: func(_ int, pt Point) (Outcome, error) {
			s2 := s
			s2.CutAfter = pt.At
			v, err := faults.RunWith(s2, faults.Options{
				DumpTearAfter:    pt.DumpTear,
				InterruptedErase: true,
			})
			return Outcome{Point: pt, Verdict: v}, err
		},
	}, nil
}

// rigTarget explores a serving-layer crash-rig campaign: a write burst
// through the gateway over replicas groups of dev-class devices. The probe
// records the merged device schedule across every replica of every group,
// so the derived points attack whichever member was busiest at each
// instant; the replays rotate the victim replica as i % replicas, so every
// replica position gets cut at adversarial instants. run executes the rig
// with the cut at pt (ignored under NoCut) on replica victim.
//
// On top of the schedule-derived points, R > 1 adds one MidCatchup point:
// the victim is cut at the earliest ack (maximal missed-write delta), and a
// second replica power-fails shortly after the victim's catch-up transfer
// begins. It needs a live donor, so R=1 rigs have none.
//
// Verdict mirrors the claim-under-test tallies (DuraSSD groups); the
// volatile groups' losses are the expected control outcome and reach the
// result through the full verdict in Outcome.Replica.
func rigTarget(name string, seed int64, dev faults.DeviceKind, replicas int,
	run func(pt Point, victim int, o serve.ReplicaOptions) (*serve.ReplicaVerdict, error)) (target, error) {
	// Program/erase midpoints come from one profile; in a mixed box the
	// volatile members' windows differ slightly, but every derived instant
	// is still a legitimate adversarial cut — the replay audit, not the
	// point placement, decides safety.
	prof, err := faults.Profile(dev)
	if err != nil {
		return target{}, err
	}
	return target{
		header:   fmt.Sprintf("scenario=%s seed=%d", name, seed),
		progLat:  prof.NAND.ProgramLatency,
		eraseLat: prof.NAND.EraseLatency,
		probe: func(sink func(int, iotrace.EventKind, time.Duration)) error {
			v, err := run(Point{}, 0, serve.ReplicaOptions{NoCut: true, EventFn: sink})
			if err == nil {
				err = v.Err
			}
			return err
		},
		extra: func(events []event, _ time.Duration) ([]Point, error) {
			if replicas <= 1 {
				return nil, nil
			}
			var minAck time.Duration
			for _, ev := range events {
				if ev.kind == iotrace.EvWriteAck && (minAck == 0 || ev.at < minAck) {
					minAck = ev.at
				}
			}
			if minAck == 0 {
				return nil, nil
			}
			return []Point{{Kind: MidCatchup, At: minAck + time.Nanosecond}}, nil
		},
		replay: func(i int, pt Point) (Outcome, error) {
			rv, err := run(pt, i%replicas, serve.ReplicaOptions{})
			if err != nil {
				return Outcome{}, err
			}
			v := &faults.Verdict{
				AckedCommits: rv.AckedCommits,
				LostCommits:  rv.GroupLost + rv.Lost,
				TornPages:    rv.Torn,
				Err:          rv.Err,
			}
			return Outcome{Point: pt, Verdict: v, Replica: rv}, nil
		},
	}, nil
}
