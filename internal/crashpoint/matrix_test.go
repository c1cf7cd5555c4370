package crashpoint

import (
	"errors"
	"strings"
	"testing"

	"durassd/internal/faults"
	"durassd/internal/serve"
)

// TestMatrixMeetsExpectations runs the matrix at the `crashtest -explore
// -points 4 -updates 80` size CI uses: every campaign must meet its
// expected outcome, claim rows safe and volatile controls lossy.
func TestMatrixMeetsExpectations(t *testing.T) {
	for _, c := range Matrix(4, 80, 1) {
		res, err := Explore(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if err := c.Check(res); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// TestCheckFlagsBrokenExpectations: a claim row that loses, a control that
// does not, and a point that failed its audit each break the expectation.
func TestCheckFlagsBrokenExpectations(t *testing.T) {
	dura := Campaign{Scenario: faults.Scenario{Device: faults.DuraSSD}}
	fastSSDA := Campaign{Scenario: faults.Scenario{Device: faults.SSDA}}
	safeSSDA := Campaign{Scenario: faults.Scenario{Device: faults.SSDA, Barrier: true, DoubleWrite: true}}
	burst := Campaign{Burst: &serve.BurstSpec{Shards: 4, Volatile: []int{1, 3}}}
	allDura := Campaign{Burst: &serve.BurstSpec{Shards: 4, Volatile: []int{}}}
	quorum := Campaign{Replica: &serve.ReplicaSpec{Replicas: 3, Quorum: 2}}
	control := Campaign{Replica: &serve.ReplicaSpec{Replicas: 1, Quorum: 1, Volatile: true}}
	failed := []Outcome{{Point: Point{Kind: AfterAck}, Verdict: &faults.Verdict{Err: errors.New("audit read failed")}}}

	for _, tc := range []struct {
		name string
		c    Campaign
		r    Result
		want string // "" when the result meets the expectation
	}{
		{"dura clean", dura, Result{}, ""},
		{"dura lost", dura, Result{Unsafe: 1, Lost: 2}, "claim broken"},
		{"dura torn", dura, Result{Unsafe: 1, Torn: 1}, "claim broken"},
		{"fast ssd-a lossy", fastSSDA, Result{Unsafe: 3, Lost: 5}, ""},
		{"fast ssd-a lost nothing", fastSSDA, Result{}, "lost no acknowledged write"},
		{"safe ssd-a lost", safeSSDA, Result{Unsafe: 1, Lost: 1}, "claim broken"},
		{"burst lossy control", burst, Result{VolatileLost: 4}, ""},
		{"burst control lost nothing", burst, Result{}, "lost no acknowledged write"},
		{"burst dura shard lost", burst, Result{Unsafe: 1, Lost: 1, VolatileLost: 4}, "claim broken"},
		{"all-dura burst clean", allDura, Result{}, ""},
		{"quorum clean", quorum, Result{}, ""},
		{"quorum lost", quorum, Result{Unsafe: 1, Lost: 1}, "claim broken"},
		{"r1 control lossy", control, Result{VolatileLost: 7}, ""},
		{"r1 control lost nothing", control, Result{}, "lost no acknowledged write"},
		{"audit error", dura, Result{Unsafe: 1, Outcomes: failed}, "audit read failed"},
	} {
		err := tc.c.Check(&tc.r)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected violation: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want a violation mentioning %q", tc.name, err, tc.want)
		}
	}
}
