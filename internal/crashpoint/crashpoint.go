// Package crashpoint explores power-failure schedules systematically
// instead of sampling them.
//
// The random-instant campaign in internal/faults answers "does a typical
// cut hurt?". This package answers the stronger question the paper's §5.2
// actually claims: does *any* cut hurt? A probe run records the device
// command schedule (every write acknowledgment, flush drain, NAND program
// and erase window), the recorder derives the adversarial instants from
// it — right after an ack, mid cell-program, mid erase pulse, mid flush
// drain, and mid capacitor dump — and each derived point is replayed as
// its own deterministic trial with the power cut pinned to that instant.
//
// Because the simulation is deterministic for a given seed, the replayed
// prefix is bit-identical to the probe's, so the cut lands exactly where
// the schedule says. Two explorations with the same campaign produce the
// same schedule digest and the same verdicts; the digest is part of the
// result so harnesses can assert it.
package crashpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"durassd/internal/faults"
	"durassd/internal/iotrace"
	"durassd/internal/serve"
)

// Kind classifies a crash point by the schedule feature it attacks.
type Kind uint8

// Crash-point kinds.
const (
	// AfterAck cuts power immediately after a host write command was
	// acknowledged — the durability contract's sharpest edge.
	AfterAck Kind = iota
	// MidProgram cuts power inside a NAND cell-program window, tearing the
	// in-flight page (the FAST'13 "shorn write").
	MidProgram
	// InFlushDrain cuts power midway through a queued flush-cache drain.
	InFlushDrain
	// MidErase cuts power inside a block-erase pulse (with the
	// interrupted-erase fault armed, the block is left indeterminate).
	MidErase
	// MidDump lets the workload cut land normally, then tears the Nth
	// capacitor-powered dump program — power dying mid-dump-block.
	MidDump
	// MidMigration cuts power midway through a bad-block retirement's
	// live-data migration (WearOut scenarios): the block is half-evacuated
	// and not yet retired when the supply dies.
	MidMigration
	// MidCatchup (ReplicaLoss campaigns) cuts the victim replica early, then
	// power-fails a second replica while the rebooted victim is mid
	// catch-up transfer — recovery under failure.
	MidCatchup
	numKinds
)

// String returns a short stable label (used in schedule digests).
func (k Kind) String() string {
	switch k {
	case AfterAck:
		return "after-ack"
	case MidProgram:
		return "mid-program"
	case InFlushDrain:
		return "in-flush-drain"
	case MidErase:
		return "mid-erase"
	case MidDump:
		return "mid-dump"
	case MidMigration:
		return "mid-migration"
	case MidCatchup:
		return "mid-catchup"
	}
	return "unknown"
}

// Point is one enumerated crash point.
type Point struct {
	Kind Kind
	// At is the virtual instant the power cut is scheduled for.
	At time.Duration
	// DumpTear, for MidDump points, is the 1-based index of the dump
	// program that the dying supply tears (0 otherwise).
	DumpTear int
}

// Campaign describes one systematic exploration.
type Campaign struct {
	// Scenario is the workload and device configuration to explore. Its
	// CutAfter is ignored: the exploration chooses the cut instants.
	// Ignored when Burst or Replica is set.
	Scenario faults.Scenario
	// Burst, when non-nil, explores the serving-layer crash rig's R=1
	// mid-burst case instead of a single-engine database scenario: a
	// multi-tenant write burst through internal/serve across mixed
	// DuraSSD/volatile shards, with the cut hitting every shard at the
	// derived instant. Its CutAfter is ignored, like Scenario's.
	Burst *serve.BurstSpec
	// Replica, when non-nil, explores the crash rig's replica-loss case: a
	// write burst through R-way replicated shard groups with one replica
	// cut at the derived instant (the victim index rotating across points),
	// plus a mid-catch-up double-fault point. Its CutAfter, CutReplica and
	// CutPeerDuringCatchup are ignored: the exploration chooses them.
	Replica *serve.ReplicaSpec
	// MaxPoints caps the number of replayed crash points (default 24). The
	// cap is split evenly across the kinds present in the schedule, and
	// each kind's points are sampled evenly across its timeline, so the
	// exploration stays representative when it cannot be exhaustive.
	MaxPoints int
	// DumpTears is how many mid-dump tear indices to enumerate (default 3;
	// < 0 disables mid-dump points). Only meaningful on devices that dump
	// (DuraSSD); drives without a dump area get no MidDump points.
	DumpTears int
}

// Name summarizes the campaign's configuration, whichever rig it explores.
func (c Campaign) Name() string {
	if c.Burst != nil {
		return c.Burst.Name()
	}
	if c.Replica != nil {
		return c.Replica.Name()
	}
	return c.Scenario.Name()
}

// Outcome pairs a crash point with its audited verdict. Verdict carries
// the claim-under-test tallies for every campaign kind, so the shared
// reporting (Safe(), failure listings) reads them uniformly; for serving
// campaigns Replica carries the crash rig's full verdict, volatile-control
// tallies included.
type Outcome struct {
	Point   Point
	Verdict *faults.Verdict
	Replica *serve.ReplicaVerdict
}

// Result is the outcome of one exploration.
type Result struct {
	Scenario faults.Scenario
	// Name is the campaign name the result belongs to (Campaign.Name()).
	Name string
	// Points are the enumerated crash points, in execution order.
	Points []Point
	// Digest is the SHA-256 of the canonical schedule serialization: the
	// same seed yields the same digest, byte for byte.
	Digest string
	// Outcomes holds one verdict per point, aligned with Points.
	Outcomes []Outcome
	// Unsafe counts outcomes that lost an acked commit, exposed a torn
	// page, or failed to recover at all. For serving campaigns only the
	// DuraSSD groups count: volatile-group loss is the expected control
	// outcome, tallied separately below.
	Unsafe int
	// Lost and Torn total the losses across all outcomes (DuraSSD groups
	// only for serving campaigns).
	Lost, Torn int
	// VolatileLost and VolatileTorn total the expected losses on the
	// volatile-cache groups of serving campaigns: MidBurst's volatile
	// shards and the R=1 volatile ReplicaLoss control (0 for engine
	// campaigns).
	VolatileLost, VolatileTorn int
}

// KindCounts tallies the enumerated points by kind.
func (r *Result) KindCounts() [int(numKinds)]int {
	var c [int(numKinds)]int
	for _, p := range r.Points {
		c[p.Kind]++
	}
	return c
}

// event is one recorded device event.
type event struct {
	member int
	kind   iotrace.EventKind
	at     time.Duration
}

// Explore runs the campaign: one probe run to record the schedule, the
// points derived and sampled from it plus the target's extra points, then
// one deterministic replay per point.
func Explore(c Campaign) (*Result, error) {
	if c.MaxPoints <= 0 {
		c.MaxPoints = 24
	}
	if c.DumpTears == 0 {
		c.DumpTears = 3
	}
	t, err := newTarget(c)
	if err != nil {
		return nil, err
	}

	// Probe: run the workload to completion, recording the schedule.
	var events []event
	err = t.probe(func(member int, kind iotrace.EventKind, at time.Duration) {
		events = append(events, event{member, kind, at})
	})
	if err != nil {
		return nil, fmt.Errorf("crashpoint: %s probe: %w", c.Name(), err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("crashpoint: %s probe recorded no device events", c.Name())
	}

	points, lastAck := derivePoints(events, t.progLat, t.eraseLat)
	points = samplePoints(points, c.MaxPoints)
	extra, err := t.extra(events, lastAck)
	if err != nil {
		return nil, fmt.Errorf("crashpoint: %s: %w", c.Name(), err)
	}
	points = append(points, extra...)
	sortPoints(points)
	points = dedupePoints(points)

	s := c.Scenario
	s.CutAfter = 0
	res := &Result{Scenario: s, Name: c.Name(), Points: points, Digest: digest(t.header, len(events), points)}
	for i, pt := range points {
		o, err := t.replay(i, pt)
		if err != nil {
			return nil, fmt.Errorf("crashpoint: %s %s at %v: %w", c.Name(), pt.Kind, pt.At, err)
		}
		res.Outcomes = append(res.Outcomes, o)
		if !o.Verdict.Safe() {
			res.Unsafe++
		}
		res.Lost += o.Verdict.LostCommits
		res.Torn += o.Verdict.TornPages
		if o.Replica != nil {
			res.VolatileLost += o.Replica.VolatileLost
			res.VolatileTorn += o.Replica.VolatileTorn
		}
	}
	return res, nil
}

// derivePoints turns the recorded schedule into candidate crash points and
// also returns the latest write-ack cut instant (0 if none).
func derivePoints(events []event, progLat, eraseLat time.Duration) ([]Point, time.Duration) {
	var pts []Point
	var lastAck time.Duration
	flushStart := make(map[int]time.Duration)
	retireStart := make(map[int]time.Duration)
	for _, ev := range events {
		switch ev.kind {
		case iotrace.EvWriteAck:
			// +1ns: the scheduler fires cut events before same-instant
			// device events, so cutting exactly at the ack timestamp would
			// land *before* the acknowledgment in the replay.
			at := ev.at + time.Nanosecond
			pts = append(pts, Point{Kind: AfterAck, At: at})
			if at > lastAck {
				lastAck = at
			}
		case iotrace.EvProgram:
			pts = append(pts, Point{Kind: MidProgram, At: ev.at + progLat/2})
		case iotrace.EvErase:
			pts = append(pts, Point{Kind: MidErase, At: ev.at + eraseLat/2})
		case iotrace.EvFlushStart:
			flushStart[ev.member] = ev.at
		case iotrace.EvFlushEnd:
			if st, ok := flushStart[ev.member]; ok && ev.at > st {
				pts = append(pts, Point{Kind: InFlushDrain, At: st + (ev.at-st)/2})
				delete(flushStart, ev.member)
			}
		case iotrace.EvRetireStart:
			retireStart[ev.member] = ev.at
		case iotrace.EvRetireEnd:
			if st, ok := retireStart[ev.member]; ok && ev.at > st {
				pts = append(pts, Point{Kind: MidMigration, At: st + (ev.at-st)/2})
				delete(retireStart, ev.member)
			}
		}
	}
	return pts, lastAck
}

// samplePoints enforces the MaxPoints cap: the budget is split evenly over
// the kinds present, and each kind keeps an even spread over its sorted
// timeline (first and last always included).
func samplePoints(pts []Point, maxPoints int) []Point {
	byKind := make(map[Kind][]Point)
	var kinds []Kind
	for _, p := range pts {
		if _, ok := byKind[p.Kind]; !ok {
			kinds = append(kinds, p.Kind)
		}
		byKind[p.Kind] = append(byKind[p.Kind], p)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	quota := maxPoints / len(kinds)
	if quota < 1 {
		quota = 1
	}
	var out []Point
	for _, k := range kinds {
		group := byKind[k]
		sortPoints(group)
		group = dedupePoints(group)
		if len(group) <= quota {
			out = append(out, group...)
			continue
		}
		if quota == 1 {
			out = append(out, group[len(group)-1])
			continue
		}
		for i := 0; i < quota; i++ {
			out = append(out, group[i*(len(group)-1)/(quota-1)])
		}
	}
	return out
}

func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].At != pts[j].At {
			return pts[i].At < pts[j].At
		}
		if pts[i].Kind != pts[j].Kind {
			return pts[i].Kind < pts[j].Kind
		}
		return pts[i].DumpTear < pts[j].DumpTear
	})
}

func dedupePoints(pts []Point) []Point {
	out := pts[:0]
	for i, p := range pts {
		if i > 0 && p == pts[i-1] {
			continue
		}
		out = append(out, p)
	}
	return out
}

// digest serializes the schedule canonically, under the target's header
// line, and hashes it.
func digest(header string, eventCount int, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s events=%d\n", header, eventCount)
	for _, p := range pts {
		fmt.Fprintf(&b, "%s@%d tear=%d\n", p.Kind, int64(p.At), p.DumpTear)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
