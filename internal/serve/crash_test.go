package serve

import (
	"fmt"
	"testing"
	"time"
)

// MidBurst crash tests: the paper's §5.2 durability claim, audited through
// the full serving layer. A power cut lands mid-burst on every shard of a
// mixed DuraSSD/SSD-A box running with barriers off; acked writes on the
// DuraSSD shards must all survive, and the volatile-cache shards must lose
// some — the control group that proves the audit has teeth.

// TestMidBurstDuraSafeVolatileLossy is the headline assertion.
func TestMidBurstDuraSafeVolatileLossy(t *testing.T) {
	v, err := RunBurst(BurstSpec{Seed: 1}, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Err != nil {
		t.Fatalf("audit error: %v", v.Err)
	}
	if v.AckedCommits == 0 {
		t.Fatal("no commit was acknowledged before the cut")
	}
	if v.AckedKeys == v.VolatileKeys || v.VolatileKeys == 0 {
		t.Fatalf("audit did not cover both device classes: %d keys, %d volatile",
			v.AckedKeys, v.VolatileKeys)
	}
	if v.GroupLost != 0 || v.Lost != 0 || v.Torn != 0 {
		t.Errorf("DuraSSD shards lost %d+%d / tore %d acked writes; the durable cache claim is broken",
			v.GroupLost, v.Lost, v.Torn)
	}
	if v.VolatileLost == 0 {
		t.Error("volatile-cache shards lost nothing: the cut landed after everything drained, so the audit proves nothing")
	}
	if !v.Safe() {
		t.Error("verdict not Safe despite clean DuraSSD tallies")
	}
}

// TestMidBurstNoCutClean: without a power cut the burst completes and the
// audit finds every acked version on every shard, volatile included — loss
// in the cut runs comes from the cut, not from the rig.
func TestMidBurstNoCutClean(t *testing.T) {
	v, err := RunBurst(BurstSpec{Seed: 1}, ReplicaOptions{NoCut: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Err != nil {
		t.Fatalf("audit error: %v", v.Err)
	}
	if v.AckedCommits == 0 {
		t.Fatal("no commits acknowledged")
	}
	if v.GroupLost+v.Lost+v.Torn+v.VolatileLost+v.VolatileTorn != 0 {
		t.Errorf("losses without a power cut: %+v", v)
	}
}

// TestMidBurstAllDuraSafe: a box built entirely from DuraSSD shards survives
// the same cut with zero loss anywhere.
func TestMidBurstAllDuraSafe(t *testing.T) {
	v, err := RunBurst(BurstSpec{Volatile: []int{}, Seed: 1}, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.VolatileKeys != 0 {
		t.Fatalf("no shard is volatile but %d keys audited as volatile", v.VolatileKeys)
	}
	if !v.Safe() || v.VolatileLost != 0 || v.VolatileTorn != 0 {
		t.Errorf("all-DuraSSD box lost data: %+v", v)
	}
}

// TestMidBurstDeterminism: identical spec and seed reproduce the identical
// verdict — the property the crashpoint campaign's replays depend on.
func TestMidBurstDeterminism(t *testing.T) {
	run := func() string {
		v, err := RunBurst(BurstSpec{Seed: 3}, ReplicaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", v)
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("mid-burst verdict diverged between identical runs:\n%s\n--- vs ---\n%s", first, second)
	}
}

// The replication claim as a property: a write acked at quorum W=2 over R=3
// DuraSSD replicas survives a crash of any W-1=1 replicas at any cut
// instant — readable from the survivors before the victim returns, and
// converged on every replica after reboot plus delta catch-up.
func TestReplicaLossQuorumAckedSurvivesAnyVictim(t *testing.T) {
	cuts := []time.Duration{
		1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	}
	for victim := 0; victim < 3; victim++ {
		for _, cut := range cuts {
			v, err := RunReplicaLoss(ReplicaSpec{
				Groups: 2, Replicas: 3, Quorum: 2,
				Updates: 120, Keys: 64, Seed: 7,
				CutAfter: cut, CutReplica: victim,
			}, ReplicaOptions{})
			if err != nil {
				t.Fatalf("victim %d cut %v: %v", victim, cut, err)
			}
			if v.AckedCommits == 0 {
				t.Fatalf("victim %d cut %v: no acked commits, nothing audited", victim, cut)
			}
			if !v.Safe() {
				t.Errorf("victim %d cut %v: groupLost=%d lost=%d torn=%d err=%v — quorum-acked writes must survive any single replica loss",
					victim, cut, v.GroupLost, v.Lost, v.Torn, v.Err)
			}
			if v.BehindAfter != 0 {
				t.Errorf("victim %d cut %v: %d keys still behind after catch-up", victim, cut, v.BehindAfter)
			}
		}
	}
}

// The rebooted replica's rejoin is a delta transfer, not a full rebuild:
// strictly fewer keys move than the replica's resident key count, and the
// group serves throughout.
func TestReplicaLossCatchupIsDelta(t *testing.T) {
	v, err := RunReplicaLoss(ReplicaSpec{
		Groups: 2, Replicas: 3, Quorum: 2,
		Updates: 160, Keys: 96, Seed: 11,
		CutAfter: 2 * time.Millisecond, CutReplica: 1,
	}, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Safe() {
		t.Fatalf("unsafe: %+v", v)
	}
	if v.CatchupKeys == 0 {
		t.Fatalf("catch-up transferred nothing; the victim missed writes during its outage")
	}
	if v.CatchupKeys >= v.TotalKeys {
		t.Errorf("catch-up moved %d keys of a %d-key space — that is a rebuild, not a delta",
			v.CatchupKeys, v.TotalKeys)
	}
}

// Losing a second replica mid-catch-up still loses nothing: acked writes
// live on at least W=2 durable replicas, so even with the rejoining victim
// and one donor down, the data survives and converges once both return.
func TestReplicaLossSecondCutDuringCatchup(t *testing.T) {
	v, err := RunReplicaLoss(ReplicaSpec{
		Groups: 2, Replicas: 3, Quorum: 2,
		Updates: 160, Keys: 96, Seed: 13,
		CutAfter: 2 * time.Millisecond, CutReplica: 0,
		CutPeerDuringCatchup: true, PeerCut: 1,
	}, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.AckedCommits == 0 {
		t.Fatal("no acked commits")
	}
	if !v.Safe() {
		t.Errorf("unsafe under double fault: groupLost=%d lost=%d torn=%d err=%v",
			v.GroupLost, v.Lost, v.Torn, v.Err)
	}
	if v.BehindAfter != 0 {
		t.Errorf("%d keys still behind after both replicas recovered", v.BehindAfter)
	}
}

// The control: R=1 over a volatile-cache SSD-A. No quorum to hide behind,
// no durable cache — acked writes that had not drained are gone after the
// crash, which is exactly the contrast the replication layer (and the
// paper's durable cache) exists to close.
func TestReplicaLossVolatileControlLosesAckedWrites(t *testing.T) {
	v, err := RunReplicaLoss(ReplicaSpec{
		Groups: 2, Replicas: 1, Quorum: 1, Volatile: true,
		Updates: 160, Keys: 96, Seed: 7,
		CutAfter: 2 * time.Millisecond,
	}, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.AckedCommits == 0 {
		t.Fatal("no acked commits before the cut")
	}
	if !v.Safe() {
		t.Errorf("control losses must stay out of the claim tallies: %+v", v)
	}
	if v.VolatileLost == 0 {
		t.Errorf("volatile R=1 control lost nothing (%d acked keys) — the control must demonstrate loss",
			v.AckedKeys)
	}
}

// The probe configuration (no fault at all) is trivially safe — the rig
// itself must not manufacture loss.
func TestReplicaLossProbeIsClean(t *testing.T) {
	v, err := RunReplicaLoss(ReplicaSpec{
		Groups: 2, Replicas: 3, Quorum: 2, Updates: 120, Keys: 64, Seed: 3,
	}, ReplicaOptions{NoCut: true})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Safe() || v.GroupLost != 0 || v.Lost != 0 {
		t.Fatalf("probe run unsafe: %+v", v)
	}
	if v.Unavailable != 0 {
		t.Errorf("probe run shed %d writes as unavailable with all replicas healthy", v.Unavailable)
	}
}
