package experiments

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 {
		t.Fatalf("expected 12 experiments, got %d", len(ids))
	}
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12"}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("e99", Config{Quick: true}); err == nil {
		t.Error("unknown id must fail")
	}
}

// TestQuickExperimentsPass runs the cheap experiments in quick mode and
// demands claim-consistency; the heavyweight sweeps (e1, e2, e4) are
// exercised by TestHeavyExperimentsPass below under -short skipping.
func TestQuickExperimentsPass(t *testing.T) {
	cfg := Config{Quick: true, Seed: 42}
	for _, id := range []string{"e3", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12"} {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !res.OK {
			t.Errorf("%s not consistent with paper claim: %s\n%s", id, res.Summary, res.Output)
		}
		if res.ID != id || res.Title == "" || res.PaperClaim == "" || res.Output == "" {
			t.Errorf("%s: incomplete result metadata", id)
		}
	}
}

func TestHeavyExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweeps skipped in -short mode")
	}
	cfg := Config{Quick: true, Seed: 42}
	for _, id := range []string{"e1", "e2", "e4"} {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !res.OK {
			t.Errorf("%s not consistent with paper claim: %s\n%s", id, res.Summary, res.Output)
		}
	}
}

func TestRunAllQuickSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll covered piecewise in -short mode")
	}
	results, err := RunAll(Config{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("got %d results, want %d", len(results), len(IDs()))
	}
	for _, r := range results {
		if !strings.HasPrefix(r.ID, "e") {
			t.Errorf("bad id %q", r.ID)
		}
	}
}

// TestSeedZeroMatchesBenchBaseline pins that the experiments read the
// gate's inputs: at seed 0 the e1 and e2 rows report the rounds that
// BENCH_1.json pins for the cmd/bench entries of the same size.
func TestSeedZeroMatchesBenchBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_1.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Benchmarks []struct {
			Name   string  `json:"name"`
			Rounds float64 `json:"rounds_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]string)
	for _, b := range rep.Benchmarks {
		pinned[b.Name] = strconv.FormatFloat(b.Rounds, 'f', -1, 64)
	}
	for _, c := range []struct {
		id, entry string
		col       int // the rounds column of the experiment's size table
		sizes     []string
	}{
		{"e1", "E1APSPQuantum", 2, []string{"8", "16"}},
		{"e2", "E2FindEdgesPromise", 1, []string{"16", "81", "256"}},
	} {
		res, err := Run(c.id, Config{Quick: true, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		// Index rows by their first cell; the size table comes first.
		rows := make(map[string][]string)
		for _, line := range strings.Split(res.Output, "\n") {
			if f := strings.Fields(line); len(f) > c.col && rows[f[0]] == nil {
				rows[f[0]] = f
			}
		}
		for _, n := range c.sizes {
			name := c.entry + "/n=" + n
			want, ok := pinned[name]
			if !ok {
				t.Fatalf("BENCH_1.json has no %s entry", name)
			}
			if row := rows[n]; row == nil || row[c.col] != want {
				t.Errorf("%s n=%s: row %v, want %s rounds as BENCH_1.json pins for %s", c.id, n, row, want, name)
			}
		}
	}
}
