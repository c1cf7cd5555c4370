package crashpoint

import (
	"strings"
	"testing"

	"durassd/internal/serve"
)

// TestExploreBurstCampaign: systematic crash-point exploration over the
// serving-layer mid-burst scenario. Every derived point replays the burst
// with the cut pinned to that instant; the DuraSSD shards must be safe at
// every point, while the volatile-cache shards show the expected loss at
// least somewhere — the same asymmetry the engine-level campaigns establish,
// now demonstrated through gateway acks.
func TestExploreBurstCampaign(t *testing.T) {
	c := Campaign{
		Burst:     &serve.BurstSpec{Shards: 4, Volatile: []int{1, 3}, Updates: 80, Seed: 5},
		MaxPoints: 4,
	}
	res, err := Explore(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Name, "midburst") {
		t.Errorf("result name %q does not identify the burst campaign", res.Name)
	}
	if len(res.Points) == 0 {
		t.Fatal("no crash points derived from the probe schedule")
	}
	if res.Unsafe != 0 || res.Lost != 0 || res.Torn != 0 {
		t.Errorf("DuraSSD shards unsafe at %d points (lost=%d torn=%d)", res.Unsafe, res.Lost, res.Torn)
	}
	if res.VolatileLost == 0 {
		t.Error("no point lost anything on the volatile shards: the exploration never caught a shard mid-burst")
	}
	sawAck := false
	for _, o := range res.Outcomes {
		if o.Replica == nil {
			t.Fatalf("burst campaign outcome at %v carries no rig verdict", o.Point.At)
		}
		if o.Replica.AckedCommits > 0 {
			sawAck = true
		}
		if !o.Replica.Safe() {
			t.Errorf("point %s@%v: DuraSSD verdict unsafe: %+v", o.Point.Kind, o.Point.At, o.Replica)
		}
	}
	if !sawAck {
		t.Error("no explored point had acknowledged commits: every cut landed before the burst started")
	}
	if n := res.KindCounts()[MidCatchup]; n != 0 {
		t.Errorf("%d mid-catchup points enumerated for the R=1 burst rig — there is no donor to cut", n)
	}
}
