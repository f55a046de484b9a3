package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qclique/internal/engine"
	"qclique/internal/experiments/workload"
	"qclique/internal/graph"
)

func TestWorkloadConstructors(t *testing.T) {
	if _, err := workload.E1Digraph(8, workload.E1W); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.TriangleGraph(16); err != nil {
		t.Fatal(err)
	}
}

// TestGossipPriorAnchoredOnBaseline keeps gossip's cost prior on its
// committed measurement: the planner and cold-start admission price an
// n=256 gossip solve from BENCH_1.json's GossipAPSP/n=256 entry. Rounds
// must match exactly; the wall prior must stay within -check's default
// noise tolerance of the entry's ns/op, so a re-baseline that moves the
// measurement further than that must move the anchor in internal/core too.
func TestGossipPriorAnchoredOnBaseline(t *testing.T) {
	rep, err := loadReport("../../BENCH_1.json")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := engine.Lookup("gossip")
	if !ok {
		t.Fatal("gossip is not registered")
	}
	prior := st.PredictCost(graph.Features{N: 256}, 0)
	for _, r := range rep.Benchmarks {
		if r.Name != "GossipAPSP/n=256" {
			continue
		}
		if prior.Rounds != int64(r.RoundsPerOp) {
			t.Errorf("prior rounds %d, baseline %v", prior.Rounds, r.RoundsPerOp)
		}
		if ratio := float64(prior.WallNs) / r.NsPerOp; ratio > defaultMaxSlowdown || ratio < 1/defaultMaxSlowdown {
			t.Errorf("prior wall %d ns is %.2fx the baseline's %.0f ns/op, beyond the %.1fx tolerance", prior.WallNs, ratio, r.NsPerOp, defaultMaxSlowdown)
		}
		return
	}
	t.Fatal("BENCH_1.json has no GossipAPSP/n=256 entry")
}

func TestE1SizesQuickSubset(t *testing.T) {
	full := workload.E1Sizes(false)
	quick := workload.E1Sizes(true)
	if len(quick) >= len(full) {
		t.Fatalf("quick mode must drop configurations: quick=%v full=%v", quick, full)
	}
	if full[len(full)-1] < 32 {
		t.Fatalf("full mode must include the n>=32 scaling cases, got %v", full)
	}
}

// TestRoundsDeterministic pins the gate's core premise: the same
// configuration at the same seed yields the same simulated round count.
func TestRoundsDeterministic(t *testing.T) {
	entries, err := workload.Table(true)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[0]
	a, err := e.Run(roundsSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(roundsSeed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Stretch != b.Stretch {
		t.Fatalf("%s: (rounds, stretch) = (%d, %v) then (%d, %v) at the same seed",
			e.Name, a.Rounds, a.Stretch, b.Rounds, b.Stretch)
	}
}

// TestStageSumGate pins the new invariant behind the -stages column: for
// every APSP workload, the engine's per-stage rounds sum exactly to the
// round total — measure enforces it on every run.
func TestStageSumGate(t *testing.T) {
	entries, err := workload.Table(true)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		out, err := e.Run(roundsSeed)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Stages) == 0 {
			continue
		}
		checked++
		if sum := engine.SumRounds(out.Stages); sum != out.Rounds {
			t.Errorf("%s: stage rounds sum %d != total %d", e.Name, sum, out.Rounds)
		}
	}
	if checked == 0 {
		t.Fatal("no workload reported stage telemetry; the stage-sum gate is vacuous")
	}
}

func report(results ...Result) *Report {
	return &Report{Label: "t", Benchmarks: results}
}

func TestCompareReportsPasses(t *testing.T) {
	base := report(
		Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500},
		Result{Name: "E2/n=16", NsPerOp: 10, RoundsPerOp: 42},
	)
	cur := report(
		Result{Name: "E1/n=8", NsPerOp: 220, RoundsPerOp: 500}, // 2.2x: inside tolerance
		Result{Name: "E2/n=16", NsPerOp: 5, RoundsPerOp: 42},
	)
	failures, log := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if len(log) != 2 {
		t.Fatalf("log = %v, want 2 comparisons", log)
	}
}

func TestCompareReportsFailsOnRoundsDeviation(t *testing.T) {
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 501})
	failures, _ := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the rounds deviation", failures)
	}
}

func TestCompareReportsFailsOnAllocGrowth(t *testing.T) {
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, AllocsPerOp: 1000})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, AllocsPerOp: 1600})
	failures, _ := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the allocs/op regression", failures)
	}
	// Improvements and within-tolerance jitter pass.
	cur = report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, AllocsPerOp: 400})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 0 {
		t.Fatalf("alloc improvement must pass, got %v", failures)
	}
}

func TestCompareReportsFailsOnSlowdown(t *testing.T) {
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 260, RoundsPerOp: 500})
	failures, _ := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the ns/op regression", failures)
	}
}

func TestCompareReportsMissingEntries(t *testing.T) {
	base := report(
		Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500},
		Result{Name: "E1/n=64", NsPerOp: 1000, RoundsPerOp: 900},
	)
	cur := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 1 {
		t.Fatalf("full mode must flag the missing baseline entry, got %v", failures)
	}
	if failures, _ := compareReports(base, cur, 2.5, 1.5, true); len(failures) != 0 {
		t.Fatalf("quick (partial) mode must tolerate the missing entry, got %v", failures)
	}
	// A new benchmark with no baseline is a note, not a failure.
	cur2 := report(
		Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500},
		Result{Name: "E1/n=64", NsPerOp: 1000, RoundsPerOp: 900},
		Result{Name: "E13/new", NsPerOp: 1, RoundsPerOp: 1},
	)
	if failures, _ := compareReports(base, cur2, 2.5, 1.5, false); len(failures) != 0 {
		t.Fatalf("new benchmarks must not fail the gate, got %v", failures)
	}
}

func TestCompareReportsFailsOnStretchDeviation(t *testing.T) {
	base := report(Result{Name: "E4APSPApproxQuantum/n=32/eps=0.5", NsPerOp: 100, RoundsPerOp: 500, StretchPerOp: 1.05})
	cur := report(Result{Name: "E4APSPApproxQuantum/n=32/eps=0.5", NsPerOp: 100, RoundsPerOp: 500, StretchPerOp: 1.06})
	failures, _ := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the stretch deviation", failures)
	}
}

// TestCompareReportsFailsOnStageDeviation: rounds that still sum to the
// pinned total fail the gate when one stage's charge moved; an entry whose
// baseline records no stages is not compared stage by stage.
func TestCompareReportsFailsOnStageDeviation(t *testing.T) {
	stages := func(square1, square2 int64) []StageRound {
		return []StageRound{{"encode", 0}, {"square-1", square1}, {"square-2", square2}, {"extract", 0}}
	}
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, Stages: stages(200, 300)})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, Stages: stages(200, 300)})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 0 {
		t.Fatalf("identical stages flagged: %v", failures)
	}
	cur = report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, Stages: stages(201, 299)})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 1 || !strings.Contains(failures[0], "stages") {
		t.Fatalf("failures = %v, want exactly the stage deviation", failures)
	}
	renamed := stages(200, 300)
	renamed[2].Name = "square-3"
	cur = report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, Stages: renamed})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the renamed stage", failures)
	}
	unrecorded := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500})
	if failures, _ := compareReports(unrecorded, cur, 2.5, 1.5, false); len(failures) != 0 {
		t.Fatalf("baseline without stages flagged: %v", failures)
	}
}

func TestApproxWinFailures(t *testing.T) {
	winning := report(
		Result{Name: "E4APSPQuantumNonneg/n=64", RoundsPerOp: 500},
		Result{Name: "E4APSPApproxQuantum/n=64/eps=0.5", RoundsPerOp: 400},
	)
	if failures := approxWinFailures(winning); len(failures) != 0 {
		t.Fatalf("winning report flagged: %v", failures)
	}
	losing := report(
		Result{Name: "E4APSPQuantumNonneg/n=64", RoundsPerOp: 500},
		Result{Name: "E4APSPApproxQuantum/n=64/eps=0.5", RoundsPerOp: 500},
	)
	if failures := approxWinFailures(losing); len(failures) != 1 {
		t.Fatalf("losing report not flagged: %v", failures)
	}
	// Unpaired entries are not an error (quick mode measures a subset).
	unpaired := report(Result{Name: "E4APSPApproxQuantum/n=128/eps=0.5", RoundsPerOp: 9})
	if failures := approxWinFailures(unpaired); len(failures) != 0 {
		t.Fatalf("unpaired entry flagged: %v", failures)
	}
}

func TestE4WorkloadConstructors(t *testing.T) {
	g, err := workload.NonnegDigraph(16)
	if err != nil {
		t.Fatal(err)
	}
	if g.HasNegativeArc() {
		t.Error("E4 workload must be nonnegative")
	}
	gs, err := workload.SymmetricDigraph(16)
	if err != nil {
		t.Fatal(err)
	}
	if !gs.IsSymmetric() || gs.HasNegativeArc() {
		t.Error("E4 skeleton workload must be symmetric and nonnegative")
	}
}

func TestReportMarshals(t *testing.T) {
	rep := &Report{
		Label:      "test",
		Benchmarks: []Result{{Name: "E1APSPQuantum/n=8", Iterations: 1, NsPerOp: 1, RoundsPerOp: 2}},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks[0].RoundsPerOp != 2 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

func TestCompareReportsWarnsNotFailsOnSlowdownAcrossGomaxprocs(t *testing.T) {
	// A slowdown beyond the limit is only a warning when the two entries
	// were measured under different effective GOMAXPROCS — the wall-clock
	// comparison is apples-to-oranges. Rounds stay a hard gate.
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, Gomaxprocs: 8})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 400, RoundsPerOp: 500, Gomaxprocs: 1})
	failures, log := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 0 {
		t.Fatalf("cross-GOMAXPROCS slowdown must not fail, got %v", failures)
	}
	warned := false
	for _, l := range log {
		if strings.Contains(l, "WARNING") && strings.Contains(l, "GOMAXPROCS") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("expected a GOMAXPROCS warning in the log, got %v", log)
	}

	// Same GOMAXPROCS: the gate stays hard.
	cur = report(Result{Name: "E1/n=8", NsPerOp: 400, RoundsPerOp: 500, Gomaxprocs: 8})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 1 {
		t.Fatalf("same-GOMAXPROCS slowdown must fail, got %v", failures)
	}
}

func TestEntryGomaxprocsFallsBackToHeader(t *testing.T) {
	// Baselines predating the per-entry column resolve through the report
	// header, so a legacy 1-proc baseline still compares warn-free against
	// a 1-proc host and warns against others.
	legacy := &Report{Label: "old", GOMAXPROCS: 4, Benchmarks: []Result{{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500}}}
	if got := entryGomaxprocs(legacy.Benchmarks[0], legacy); got != 4 {
		t.Fatalf("legacy fallback = %d, want 4", got)
	}
	tagged := Result{Name: "E1/n=8", Gomaxprocs: 2}
	if got := entryGomaxprocs(tagged, legacy); got != 2 {
		t.Fatalf("per-entry value = %d, want 2", got)
	}
}

// TestCPUProfileSurvivesFailingGate drives the gate's failure path with
// -cpuprofile: the profile must be stopped and flushed before the failure
// reaches main's os.Exit, or CI uploads an empty bench-cpu.pprof exactly
// when a regression needs explaining.
func TestCPUProfileSurvivesFailingGate(t *testing.T) {
	rep, err := loadReport("../../BENCH_1.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "E2FindEdgesPromise/n=16" {
			rep.Benchmarks[i].RoundsPerOp++
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// One iteration per entry: the gate fails on rounds, not on timing.
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Value.Set(prev) })

	prof := filepath.Join(dir, "cpu.pprof")
	err = run([]string{"-quick", "-check", baseline, "-cpuprofile", prof})
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("run = %v, want the gate's regression failure", err)
	}
	got, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || got[0] != 0x1f || got[1] != 0x8b {
		t.Fatalf("CPU profile after a failing gate is %d bytes and not gzip-framed", len(got))
	}
}
