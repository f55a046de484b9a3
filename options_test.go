package qclique

import (
	"strings"
	"testing"
)

// TestOptionsValidate: the consolidated Options struct accepts and refuses
// exactly what a solve would — epsilon/strategy consistency, timeout
// sign — without running any pipeline.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		ok   bool
		want string
	}{
		{"zero value", Options{}, true, ""},
		{"approx with epsilon", Options{Strategy: ApproxQuantum, Epsilon: 0.5}, true, ""},
		{"approx without epsilon", Options{Strategy: ApproxQuantum}, false, "epsilon"},
		{"epsilon on exact", Options{Strategy: Gossip, Epsilon: 0.5}, false, "epsilon"},
		{"negative timeout", Options{Timeout: -1}, false, "timeout"},
	} {
		err := tc.o.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: Validate accepted an invalid configuration", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		}
	}
}

// TestWithOptionsOverlay: WithOptions overlays a whole configuration,
// replacing options given before it, while later options still override
// individual fields; SolveAPSP and Solver both run the overlaid
// configuration.
func TestWithOptionsOverlay(t *testing.T) {
	base := Options{Strategy: Gossip, Preset: ScaledConstants, Seed: 7, Workers: 2}
	if o := buildOptions([]Option{WithWorkers(5), WithOptions(base), WithSeed(9)}); o.Strategy != Gossip ||
		o.Preset != ScaledConstants || o.Workers != 2 || o.Seed != 9 {
		t.Errorf("WithWorkers(5), WithOptions(base), WithSeed(9) = %+v, want base with seed 9", o)
	}
	// The zero Options overlay still selects the documented defaults.
	if o := buildOptions([]Option{WithOptions(Options{})}); o.Strategy != Quantum || o.Preset != PaperConstants {
		t.Errorf("zero overlay = %+v, want Quantum with PaperConstants", o)
	}

	g := NewDigraph(6)
	for i := 0; i < 6; i++ {
		if err := g.SetArc(i, (i+1)%6, int64(1+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := SolveAPSP(g, WithOptions(base))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != Gossip {
		t.Errorf("solve ran strategy %v, want gossip", res.Strategy)
	}

	// An invalid configuration fails before any pipeline runs.
	if _, err := SolveAPSP(g, WithOptions(base), WithEpsilon(0.5)); err == nil ||
		!strings.Contains(err.Error(), "epsilon") {
		t.Errorf("epsilon on gossip: err = %v, want a rejection naming epsilon", err)
	}

	sres, err := NewSolver(WithOptions(base)).Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Strategy != Gossip || sres.Rounds != res.Rounds {
		t.Errorf("solver ran %v in %d rounds, want gossip in %d", sres.Strategy, sres.Rounds, res.Rounds)
	}
}
