package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// The crash rig: a write burst through the full serving layer (gateway,
// ring, admission, replica groups of group-commit shard stores) with a
// power cut at an adversarial instant, all in the paper's fast no-barrier
// configuration. Both crash scenarios are configurations of it:
//
//   - MidBurst is the R=1 case over a mix of DuraSSD and volatile-cache
//     SSD-A shards: every shard loses its supply at the same instant — the
//     whole box goes dark, exactly the event the paper's §5.2 study
//     injects. An ack returned through the gateway is durable on the
//     DuraSSD shards and is not on the volatile ones.
//   - ReplicaLoss cuts a single replica of every R-way group — mid-quorum,
//     just after an ack, during a flush drain, or while another replica is
//     catching up. A write acknowledged at quorum W over DuraSSD replicas
//     survives the loss of any single replica, is readable from the
//     survivors before the victim returns, and converges everywhere once
//     the victim reboots and catches up from a live peer. The R=1 volatile
//     control row demonstrates the opposite: with no quorum and no durable
//     cache, acked writes vanish.
//
// The verdict splits by device class: loss on a DuraSSD group breaks the
// claim under test, loss on a volatile group is the control's expected
// outcome and is tallied apart.

// BurstSpec configures one mid-burst crash run.
type BurstSpec struct {
	// Shards is the shard count (default 4; at least 2).
	Shards int
	// Volatile lists the shard indices built on volatile-cache SSD-A
	// drives; the rest are DuraSSD. Default: every odd shard.
	Volatile []int
	// Tenants is the number of writer tenants (default 3), Clients the
	// writer processes per tenant (default 2).
	Tenants int
	Clients int
	// Updates is the total number of Put attempts across all writers
	// (default 240).
	Updates int
	// Keys is the per-tenant key-space size (default 64).
	Keys int
	Seed int64
	// CutAfter is the power-cut instant; every shard loses power at the
	// same virtual time. Zero with NoCut unset means 5ms.
	CutAfter time.Duration
}

func (sp *BurstSpec) defaults() {
	if sp.Shards < 2 {
		sp.Shards = 4
	}
	if sp.Volatile == nil {
		for i := 1; i < sp.Shards; i += 2 {
			sp.Volatile = append(sp.Volatile, i)
		}
	}
	if sp.Tenants <= 0 {
		sp.Tenants = 3
	}
	if sp.Clients <= 0 {
		sp.Clients = 2
	}
	if sp.Updates <= 0 {
		sp.Updates = 240
	}
	if sp.Keys <= 0 {
		sp.Keys = 64
	}
	if sp.CutAfter == 0 {
		sp.CutAfter = 5 * time.Millisecond
	}
}

// Name summarizes the configuration (stable: it feeds schedule digests).
func (sp BurstSpec) Name() string {
	cp := sp
	cp.defaults()
	return fmt.Sprintf("serve midburst shards=%d volatile=%d barrier=off", cp.Shards, len(cp.Volatile))
}

// ReplicaSpec configures one replica-loss crash run.
type ReplicaSpec struct {
	// Groups is the number of shard replica groups (default 2).
	Groups int
	// Replicas is the replication factor R per group (default 3).
	Replicas int
	// Quorum is the write quorum W (default majority).
	Quorum int
	// Volatile builds the replicas on volatile-cache SSD-A drives instead of
	// DuraSSD — the control configuration that loses acked writes.
	Volatile bool
	// Writers is the number of writer processes (default 4).
	Writers int
	// Updates is the total number of Put attempts (default 160).
	Updates int
	// Keys is the key-space size (default 96).
	Keys int
	Seed int64
	// CutAfter is the instant the victim replica of every group loses power.
	// Zero with NoCut unset means 5ms.
	CutAfter time.Duration
	// CutReplica is the victim replica index, cut in every group.
	CutReplica int
	// CutPeerDuringCatchup power-fails replica PeerCut of every group
	// shortly after the victim's catch-up starts — the recovery-under-
	// failure arm.
	CutPeerDuringCatchup bool
	PeerCut              int
}

func (sp *ReplicaSpec) defaults() {
	if sp.Groups <= 0 {
		sp.Groups = 2
	}
	if sp.Replicas <= 0 {
		sp.Replicas = 3
	}
	if sp.Quorum <= 0 {
		sp.Quorum = sp.Replicas/2 + 1
	}
	if sp.Writers <= 0 {
		sp.Writers = 4
	}
	if sp.Updates <= 0 {
		sp.Updates = 160
	}
	if sp.Keys <= 0 {
		sp.Keys = 96
	}
	if sp.CutAfter == 0 {
		sp.CutAfter = 5 * time.Millisecond
	}
	if sp.CutReplica < 0 || sp.CutReplica >= sp.Replicas {
		sp.CutReplica = 0
	}
	if sp.PeerCut == sp.CutReplica || sp.PeerCut < 0 || sp.PeerCut >= sp.Replicas {
		sp.PeerCut = (sp.CutReplica + 1) % sp.Replicas
	}
}

// Name summarizes the configuration (stable: it feeds schedule digests).
func (sp ReplicaSpec) Name() string {
	cp := sp
	cp.defaults()
	dev := "durassd"
	if cp.Volatile {
		dev = "ssda"
	}
	return fmt.Sprintf("serve replicaloss groups=%d r=%d w=%d dev=%s", cp.Groups, cp.Replicas, cp.Quorum, dev)
}

// ReplicaOptions are the probe/replay knobs crash-point exploration layers
// on either spec, mirroring faults.Options.
type ReplicaOptions struct {
	// NoCut runs the burst with no fault at all (the probe run that records
	// the command schedule).
	NoCut bool
	// EventFn observes device events on every replica
	// (member = group*Replicas + replica; the shard index for MidBurst).
	EventFn func(member int, kind iotrace.EventKind, at time.Duration)
}

// ReplicaVerdict is the audited outcome of one crash-rig run. GroupLost,
// Lost and Torn are the claim under test and count DuraSSD groups only;
// the volatile groups' losses are the control's expected outcome and land
// in VolatileLost and VolatileTorn instead.
type ReplicaVerdict struct {
	AckedCommits int // Puts acknowledged through the gateway before the end of traffic
	AckedKeys    int // distinct acked keys audited
	VolatileKeys int // of AckedKeys, those owned by volatile groups
	// GroupLost counts acked keys whose acked version was not readable from
	// any live replica before the victim rebooted — the availability half of
	// the quorum claim (must be 0 when live replicas >= 1 and W >= 2).
	GroupLost int
	// Lost counts (replica, key) pairs below the acked version after every
	// reboot and catch-up completed — the convergence half (must be 0 on
	// DuraSSD groups).
	Lost int
	// Torn counts page images failing their checksum in either audit.
	Torn int
	// VolatileLost and VolatileTorn are the same tallies (availability and
	// convergence losses together) on the volatile groups.
	VolatileLost int
	VolatileTorn int
	// CatchupKeys is the total keys delta-transferred to rejoining replicas;
	// TotalKeys the resident key count (catch-up must move strictly less — a
	// delta, not a rebuild).
	CatchupKeys int
	TotalKeys   int
	// BehindAfter counts keys still marked behind after all catch-up passes
	// (non-zero only when no live peer exists, e.g. at R=1).
	BehindAfter int
	Shed        int // Puts shed by admission control (never acknowledged)
	Unavailable int // Puts refused below quorum (never acknowledged)
	Err         error
}

// Safe reports whether the DuraSSD groups preserved every guarantee: no
// acked write was ever unreadable, nothing was lost after convergence, and
// no page tore. The volatile tallies are deliberately not part of this:
// their loss is the expected outcome, not a failure.
func (v *ReplicaVerdict) Safe() bool {
	return v.Err == nil && v.GroupLost == 0 && v.Lost == 0 && v.Torn == 0
}

// tenantKey builds tenant t's i-th key: disjoint per-tenant key spaces.
func tenantKey(t, i int) uint64 { return uint64(t+1)<<32 | uint64(i) }

// RunBurst executes the mid-burst crash scenario — the rig's R=1 case, each
// shard a group of one — and audits the aftermath.
func RunBurst(sp BurstSpec, o ReplicaOptions) (*ReplicaVerdict, error) {
	sp.defaults()
	vol := make([]bool, sp.Shards)
	for _, i := range sp.Volatile {
		if i < 0 || i >= sp.Shards {
			return nil, fmt.Errorf("serve: volatile shard index %d out of range", i)
		}
		vol[i] = true
	}
	return runRig(ReplicaSpec{
		Groups: sp.Shards, Replicas: 1, Writers: sp.Clients,
		Updates: sp.Updates, Keys: sp.Keys, Seed: sp.Seed, CutAfter: sp.CutAfter,
	}, sp.Tenants, vol, o)
}

// RunReplicaLoss executes the replica-loss crash scenario and audits the
// aftermath: pre-reboot availability from the survivors, then reboot, peer
// catch-up and full convergence.
func RunReplicaLoss(sp ReplicaSpec, o ReplicaOptions) (*ReplicaVerdict, error) {
	sp.defaults()
	vol := make([]bool, sp.Groups)
	for g := range vol {
		vol[g] = sp.Volatile
	}
	return runRig(sp, 1, vol, o)
}

// runRig runs the crash rig: sp's groups, each on the device class volatile
// gives it, written by tenants × sp.Writers processes (Keys and Updates are
// per tenant and in total), with sp's cut.
func runRig(sp ReplicaSpec, tenants int, volatile []bool, o ReplicaOptions) (*ReplicaVerdict, error) {
	sp.defaults()
	R := sp.Replicas
	var keys []uint64
	for t := 0; t < tenants; t++ {
		for i := 0; i < sp.Keys; i++ {
			keys = append(keys, tenantKey(t, i))
		}
	}
	// One worker: the campaign replays need determinism of the recorded
	// schedule, not wall-clock speed (the digest sweeps cover parallelism).
	bx, err := buildBox(boxSpec{
		groups: sp.Groups, replicas: R, workers: 1, latency: 100 * time.Microsecond,
		keys: keys, volatile: volatile,
		store: StoreConfig{Barrier: false, RealBytes: true},
		serve: Config{Concurrency: 8, QueueDepth: 64, CacheSize: 64, Group: GroupConfig{Quorum: sp.Quorum}},
	})
	if err != nil {
		return nil, err
	}
	defer bx.cluster.Close()
	bx.observe(o.EventFn)
	v := &ReplicaVerdict{TotalKeys: tenants * sp.Keys}
	srv := bx.srv

	// Writer tenants: Put random keys from their own space, record the
	// versions acknowledged through the gateway — the durability contract
	// under audit. Shedding and below-quorum refusals are typed serving
	// outcomes; anything else escaped the error taxonomy and is reported.
	acked := make(map[uint64]uint64)
	perClient := sp.Updates / (tenants * sp.Writers)
	for t := 0; t < tenants; t++ {
		acct := NewTenantAccount(fmt.Sprintf("tenant%d", t), 1_000_000, 64)
		for c := 0; c < sp.Writers; c++ {
			rng := sim.NewRand(sp.Seed + int64(t)*104_729 + int64(c)*7_919)
			bx.front.Go(fmt.Sprintf("writer-%d-%d", t, c), func(p *sim.Proc) {
				for i := 0; i < perClient; i++ {
					key := tenantKey(t, rng.Intn(sp.Keys))
					ver, err := srv.Put(p, acct, key)
					switch {
					case err == nil:
						if ver > acked[key] {
							acked[key] = ver
						}
						v.AckedCommits++
					case errors.Is(err, ErrOverloaded):
						v.Shed++
					case errors.Is(err, ErrShardUnavailable):
						v.Unavailable++
					default:
						if v.Err == nil {
							v.Err = fmt.Errorf("tenant %d writer %d: %w", t, c, err)
						}
						return
					}
				}
			})
		}
	}

	// powerFail schedules replica r of every group to lose its supply after d.
	powerFail := func(r int, d time.Duration) {
		for g := range bx.stores {
			st := bx.stores[g][r]
			st.Domain().Engine().Schedule(d, st.Device().(storage.PowerCycler).PowerFail)
		}
	}
	// reboot runs firmware recovery on replica r of every group: DuraSSD
	// recharges and keeps its cache, SSD-A comes back having lost whatever
	// was in it.
	reboot := func(r int) error {
		errs := make([]error, sp.Groups)
		for g := range bx.stores {
			st := bx.stores[g][r]
			st.Domain().Go(fmt.Sprintf("reboot-%d-%d", g, r), func(p *sim.Proc) {
				errs[g] = st.Device().(storage.PowerCycler).Reboot(p)
			})
		}
		bx.cluster.Run()
		for g, err := range errs {
			if err != nil {
				return fmt.Errorf("group %d replica %d reboot: %w", g, r, err)
			}
		}
		return nil
	}

	down := make([]bool, R) // replica indices currently powered off
	if !o.NoCut {
		down[sp.CutReplica] = true
		powerFail(sp.CutReplica, sp.CutAfter)
	}
	bx.cluster.Run()
	bx.observe(nil) // the schedule covers the workload only

	// Partition the acked keys by owning group, in sorted key order so the
	// audit schedule never depends on map iteration.
	sortedKeys := make([]uint64, 0, len(acked))
	for k := range acked {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Slice(sortedKeys, func(i, j int) bool { return sortedKeys[i] < sortedKeys[j] })
	byGroup := make([][]uint64, sp.Groups)
	for _, k := range sortedKeys {
		g := srv.ShardFor(k)
		byGroup[g] = append(byGroup[g], k)
		if volatile[g] {
			v.VolatileKeys++
		}
	}
	v.AckedKeys = len(sortedKeys)

	// tally returns group g's loss counters: the claim's on DuraSSD groups,
	// the control's on volatile ones.
	tally := func(g int) (groupLost, lost, torn *int) {
		if volatile[g] {
			return &v.VolatileLost, &v.VolatileLost, &v.VolatileTorn
		}
		return &v.GroupLost, &v.Lost, &v.Torn
	}

	// audit crash-reads every acked key of every group on each powered
	// replica: reads[g*R+r][i] is replica r's copy of byGroup[g][i].
	type read struct {
		ver uint64
		ok  bool
	}
	audit := func(label string) ([][]read, error) {
		reads := make([][]read, sp.Groups*R)
		errs := make([]error, sp.Groups*R)
		for g, reps := range bx.stores {
			for r, st := range reps {
				if down[r] {
					continue
				}
				m := g*R + r
				reads[m] = make([]read, len(byGroup[g]))
				st.Domain().Go(fmt.Sprintf("%s-%d-%d", label, g, r), func(p *sim.Proc) {
					for i, k := range byGroup[g] {
						ver, ok, err := st.CrashRead(p, k)
						if err != nil {
							errs[m] = fmt.Errorf("group %d replica %d audit: %w", g, r, err)
							return
						}
						reads[m][i] = read{ver, ok}
					}
				})
			}
		}
		bx.cluster.Run()
		return reads, errors.Join(errs...)
	}

	// Phase A — availability before the victim returns: every acked key must
	// be readable at its acked version from some still-powered replica. Live
	// replicas were never power-cut, so a torn image here is a real bug.
	reads, err := audit("preaudit")
	if err != nil {
		return nil, err
	}
	live := slices.Contains(down, false)
	for g, ks := range byGroup {
		groupLost, _, torn := tally(g)
		for i, k := range ks {
			var newest uint64
			for r, rd := range reads[g*R : g*R+R] {
				if down[r] {
					continue
				}
				if !rd[i].ok {
					*torn++
					continue
				}
				newest = max(newest, rd[i].ver)
			}
			if live && newest < acked[k] {
				*groupLost++
			}
		}
	}

	if !o.NoCut {
		if err := reboot(sp.CutReplica); err != nil {
			return nil, err
		}
		down[sp.CutReplica] = false

		// Catch up the rejoined victims from live peers — with, in the
		// recovery-under-failure arm, a second replica power-failing shortly
		// after the transfers begin.
		if sp.CutPeerDuringCatchup {
			down[sp.PeerCut] = true
			powerFail(sp.PeerCut, 200*time.Microsecond)
		}
		caught := make([]int, sp.Groups)
		for g := range caught {
			bx.front.Go(fmt.Sprintf("replica-catchup-%d", g), func(p *sim.Proc) {
				caught[g] = srv.Group(g).CatchUp(p, sp.CutReplica)
			})
		}
		bx.cluster.Run()

		// Recover the second victim too, then run anti-entropy on every
		// replica still marked behind (including healthy replicas that
		// merely missed an RPC) so the convergence audit is meaningful.
		if sp.CutPeerDuringCatchup {
			if err := reboot(sp.PeerCut); err != nil {
				return nil, err
			}
			down[sp.PeerCut] = false
		}
		for g := range caught {
			bx.front.Go(fmt.Sprintf("anti-entropy-%d", g), func(p *sim.Proc) {
				for r := 0; r < R; r++ {
					if srv.Group(g).Behind(r) > 0 {
						caught[g] += srv.Group(g).CatchUp(p, r)
					}
				}
			})
		}
		bx.cluster.Run()
		for _, n := range caught {
			v.CatchupKeys += n
		}
	}
	for g := 0; g < sp.Groups; g++ {
		for r := 0; r < R; r++ {
			v.BehindAfter += srv.Group(g).Behind(r)
		}
	}

	// Phase B — convergence: after reboot and catch-up, every replica of
	// every group must hold every acked key at or above its acked version.
	// (At R=1 this is simply "did the sole copy survive".)
	if reads, err = audit("postaudit"); err != nil {
		return nil, err
	}
	for g, ks := range byGroup {
		_, lost, torn := tally(g)
		for i, k := range ks {
			for r, rd := range reads[g*R : g*R+R] {
				switch {
				case down[r]:
				case !rd[i].ok:
					*torn++
					*lost++
				case rd[i].ver < acked[k]:
					*lost++
				}
			}
		}
	}
	return v, nil
}
