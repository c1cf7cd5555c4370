package crashpoint

import (
	"testing"

	"durassd/internal/serve"
)

// The ReplicaLoss campaign proves the replication claim at every derived
// adversarial instant: cutting any single replica of an R=3 W=2 DuraSSD
// group right after a quorum ack, mid program, mid flush drain, or mid
// erase — and cutting a second replica mid catch-up — never loses a
// quorum-acked write.
func TestExploreReplicaQuorumSafeAtEveryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-loss exploration replays many full runs")
	}
	res, err := Explore(Campaign{
		Replica: &serve.ReplicaSpec{
			Groups: 2, Replicas: 3, Quorum: 2,
			Updates: 60, Seed: 11,
		},
		MaxPoints: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no crash points derived")
	}
	if res.Unsafe != 0 || res.Lost != 0 || res.Torn != 0 {
		t.Errorf("unsafe=%d lost=%d torn=%d; quorum-acked writes must survive every point",
			res.Unsafe, res.Lost, res.Torn)
	}
	counts := res.KindCounts()
	if counts[AfterAck] == 0 {
		t.Errorf("no after-ack points in %v", res.Points)
	}
	if counts[MidCatchup] != 1 {
		t.Errorf("mid-catchup points = %d, want exactly 1", counts[MidCatchup])
	}
	// The victim index must rotate so every replica position gets cut.
	seen := map[int]bool{}
	for i := range res.Points {
		seen[i%3] = true
	}
	if len(res.Points) >= 3 && (!seen[0] || !seen[1] || !seen[2]) {
		t.Errorf("victim rotation did not cover all replica positions over %d points", len(res.Points))
	}
	for _, o := range res.Outcomes {
		if o.Replica == nil {
			t.Fatalf("outcome %v missing the replica verdict", o.Point)
		}
		if o.Replica.AckedCommits == 0 {
			t.Errorf("point %s@%v acked nothing — nothing audited", o.Point.Kind, o.Point.At)
		}
	}
}

// The R=1 volatile control must demonstrate loss: with no quorum and no
// durable cache, at least one derived point loses acked writes — and the
// losses land in the Volatile tallies, not in Unsafe, because loss is the
// expected control outcome (mirroring the MidBurst volatile shards).
func TestExploreReplicaVolatileControlLoses(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-loss exploration replays many full runs")
	}
	res, err := Explore(Campaign{
		Replica: &serve.ReplicaSpec{
			Groups: 2, Replicas: 1, Quorum: 1, Volatile: true,
			Updates: 60, Seed: 11,
		},
		MaxPoints: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VolatileLost == 0 {
		t.Errorf("volatile R=1 control lost nothing across %d points — the control must demonstrate loss",
			len(res.Points))
	}
	if res.Unsafe != 0 || res.Lost != 0 {
		t.Errorf("unsafe=%d lost=%d; control losses are expected and belong in the volatile tallies",
			res.Unsafe, res.Lost)
	}
	for _, pt := range res.Points {
		if pt.Kind == MidCatchup {
			t.Errorf("mid-catchup point enumerated for R=1 — there is no donor to cut")
		}
	}
}
