package main

import "testing"

// Every rung passes its own work check at a reduced size.
func TestLadderRungsDoTheirWork(t *testing.T) {
	for _, r := range ladder {
		m := &meter{}
		if err := r.run(m, min(r.n, 2000)); err != nil {
			t.Errorf("%s: %v", r.stem, err)
		}
		if m.d <= 0 {
			t.Errorf("%s: measured section took no time", r.stem)
		}
	}
}
