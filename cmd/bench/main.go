// Command bench runs the named workload table of
// internal/experiments/workload — the E1–E4 workloads (the paper's headline measurements: full quantum APSP
// pipeline, FindEdgesWithPromise sweep, truncated multi-search, and the
// approximate-APSP frontier comparing the (1+ε) chain and (2+ε) skeleton
// against the exact pipeline on shared graphs) plus the gossip baseline's
// node-local min-plus work, the squaring chain's fixed point — and emits a
// machine-readable JSON report with ns/op, rounds/op, observed stretch and
// allocation counts per configuration, so the performance trajectory is
// tracked across PRs:
//
//	go run ./cmd/bench -label "PR 2" -out BENCH_1.json
//
// It is also the CI regression gate ("Mind the Õ": round-accounting claims
// only stay honest while they are continuously re-measured):
//
//	go run ./cmd/bench -check BENCH_1.json
//
// -check re-measures every configuration and fails (exit 1) if any
// rounds/op deviates from the committed baseline at all — rounds are
// deterministic seed-for-seed, measured at a pinned seed, so any drift is
// a semantic change to the simulated protocol — if any ns/op regresses by
// more than -max-slowdown (wall-clock noise tolerance, default 2.5x), or
// if any allocs/op grows beyond -max-alloc-growth (default 1.5x; the
// allocation count is nearly deterministic, so growth means a solve-path
// buffer stopped being reused within the solve).
//
// Every APSP workload additionally passes the stage-sum gate on every run:
// the engine's per-stage round breakdown must sum exactly to rounds/op.
// -stages adds that breakdown as a column in the emitted report. -planner
// adds the planner-accuracy column: one strategy=auto solve per bench
// graph, recording which strategy the serving layer's planner chose and
// how far its round prediction landed from the execution.
//
// -cpuprofile / -memprofile write pprof profiles of the measurement run so
// perf PRs can ship evidence alongside the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"qclique/internal/core"
	"qclique/internal/engine"
	"qclique/internal/experiments/workload"
	"qclique/internal/serve"
)

// roundsSeed is the pinned seed at which rounds/op is measured; timing
// loops vary the seed per iteration, the deterministic round count does
// not.
const roundsSeed = 0

// Result is one benchmark configuration's measurement. StretchPerOp is the
// accuracy column of the approximate configurations: the observed max
// stretch against the exact reference at the pinned seed (0 for exact
// workloads, where accuracy is not a variable). Stages is the -stages
// column: the engine's per-stage round breakdown at the pinned seed
// (deterministic, like rounds); it is emitted only when -stages is set so
// existing baselines stay byte-comparable, but the invariant that stage
// rounds sum exactly to rounds/op is enforced on every run regardless.
type Result struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	RoundsPerOp  float64 `json:"rounds_per_op,omitempty"`
	StretchPerOp float64 `json:"stretch_per_op,omitempty"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	// Gomaxprocs is the effective GOMAXPROCS the entry was measured under
	// (omitted in baselines predating the column; -check falls back to
	// the report-level value). ns/op comparisons across differing values
	// are wall-clock apples-to-oranges, so -check downgrades them to
	// warnings.
	Gomaxprocs int          `json:"gomaxprocs,omitempty"`
	Stages     []StageRound `json:"stages,omitempty"`
}

// StageRound is one stage's deterministic round charge at the pinned seed.
type StageRound struct {
	Name   string `json:"name"`
	Rounds int64  `json:"rounds"`
}

// PlannerResult is one graph's planner-accuracy row (-planner): the
// strategy a serving-layer planner chose for a strategy=auto solve of the
// bench graph, and how its round prediction compared with the execution.
type PlannerResult struct {
	Name            string  `json:"name"`
	Chosen          string  `json:"chosen"`
	Reason          string  `json:"reason"`
	PredictedRounds int64   `json:"predicted_rounds"`
	ActualRounds    int64   `json:"actual_rounds"`
	RoundsErrorPct  float64 `json:"rounds_error_pct"`
}

// Report is the emitted document. Planner is the -planner column; like
// -stages it is additive and omitted by default so existing baselines stay
// byte-comparable.
type Report struct {
	Label      string          `json:"label"`
	GoVersion  string          `json:"go"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Timestamp  string          `json:"timestamp"`
	RoundsSeed uint64          `json:"rounds_seed"`
	Benchmarks []Result        `json:"benchmarks"`
	Planner    []PlannerResult `json:"planner,omitempty"`
}

// measure records e's deterministic round count at the pinned seed plus
// wall-clock/allocation statistics over varying seeds. The timing loop's
// iteration i runs seed i, so iteration roundsSeed doubles as the pinned
// rounds measurement — no separate warm-up run. Workloads that report a
// per-stage breakdown additionally pass through the stage-sum gate: the
// stage rounds must sum exactly to rounds/op, every run, or the engine's
// stage accounting has drifted from the network's.
func measure(e workload.Entry, withStages bool) (Result, error) {
	var pinned workload.Out
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := e.Run(uint64(i))
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			if uint64(i) == roundsSeed {
				pinned = out
			}
		}
	})
	if benchErr != nil {
		return Result{}, fmt.Errorf("%s: %w", e.Name, benchErr)
	}
	if len(pinned.Stages) > 0 {
		if sum := engine.SumRounds(pinned.Stages); sum != pinned.Rounds {
			return Result{}, fmt.Errorf("%s: per-stage rounds sum %d != rounds/op %d — the engine's stage accounting drifted from the network total",
				e.Name, sum, pinned.Rounds)
		}
	}
	res := Result{
		Name:         e.Name,
		Iterations:   r.N,
		NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
		RoundsPerOp:  float64(pinned.Rounds),
		StretchPerOp: pinned.Stretch,
		BytesPerOp:   r.AllocedBytesPerOp(),
		AllocsPerOp:  r.AllocsPerOp(),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
	}
	if withStages {
		for _, sg := range pinned.Stages {
			if sg.Skipped {
				continue
			}
			res.Stages = append(res.Stages, StageRound{Name: sg.Name, Rounds: sg.Rounds})
		}
	}
	return res, nil
}

// plannerAccuracy runs a strategy=auto solve of each E1-sized bench graph
// through a fresh serving instance and reports the planner's decision next
// to the executed rounds — the -planner column. A fresh instance has no
// live telemetry, so this measures the static cost priors, the worst case
// the planner starts from.
func plannerAccuracy(quick bool) ([]PlannerResult, error) {
	sizes := []int{16, 32, 64}
	if quick {
		sizes = []int{16, 32}
	}
	svc := serve.New(serve.Config{DefaultStrategy: core.StrategyAuto})
	var out []PlannerResult
	for _, n := range sizes {
		g, err := workload.E1Digraph(n, workload.E1W)
		if err != nil {
			return nil, err
		}
		res, err := svc.SolveGraph(g, serve.SolveSpec{Preset: serve.PresetScaled, Seed: roundsSeed})
		if err != nil {
			return nil, err
		}
		if res.Plan == nil {
			return nil, fmt.Errorf("planner/apsp/n=%d: auto solve returned no plan", n)
		}
		pr := PlannerResult{
			Name:            fmt.Sprintf("planner/apsp/n=%d", n),
			Chosen:          res.Plan.Strategy,
			Reason:          res.Plan.Reason,
			PredictedRounds: res.Plan.PredictedRounds,
			ActualRounds:    res.Res.Rounds,
		}
		if pr.ActualRounds > 0 {
			diff := float64(pr.PredictedRounds - pr.ActualRounds)
			if diff < 0 {
				diff = -diff
			}
			pr.RoundsErrorPct = 100 * diff / float64(pr.ActualRounds)
		}
		out = append(out, pr)
	}
	return out, nil
}

func buildReport(label string, quick, withStages bool) (*Report, error) {
	rep := &Report{
		Label:      label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		RoundsSeed: roundsSeed,
	}
	entries, err := workload.Table(quick)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		res, err := measure(e, withStages)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	return rep, nil
}

// entryGomaxprocs resolves the effective GOMAXPROCS one entry was measured
// under: the per-entry column when present, the report header otherwise
// (baselines predating the column).
func entryGomaxprocs(r Result, rep *Report) int {
	if r.Gomaxprocs > 0 {
		return r.Gomaxprocs
	}
	return rep.GOMAXPROCS
}

// compareReports checks current against baseline: any rounds/op deviation
// is a failure (rounds are deterministic), ns/op beyond maxSlowdown× is a
// failure, allocs/op beyond maxAllocGrowth× is a failure (the allocation
// profile is nearly deterministic, so growth means a solve-path buffer
// stopped being reused within the solve), and baseline entries missing
// from the current run are a failure unless partial (quick mode). It
// returns the failures and a human log of every comparison.
func compareReports(baseline, current *Report, maxSlowdown, maxAllocGrowth float64, partial bool) (failures, log []string) {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	seen := make(map[string]bool, len(current.Benchmarks))
	for _, cur := range current.Benchmarks {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			log = append(log, fmt.Sprintf("%-28s new benchmark, no baseline (regenerate with -out)", cur.Name))
			continue
		}
		if cur.RoundsPerOp != b.RoundsPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s: rounds/op %.0f != baseline %.0f — the simulated protocol changed; "+
					"if intended, regenerate the baseline", cur.Name, cur.RoundsPerOp, b.RoundsPerOp))
			continue
		}
		if cur.StretchPerOp != b.StretchPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s: stretch/op %v != baseline %v — the approximate pipeline's accuracy changed; "+
					"if intended, regenerate the baseline", cur.Name, cur.StretchPerOp, b.StretchPerOp))
			continue
		}
		ratio := cur.NsPerOp / b.NsPerOp
		if ratio > maxSlowdown {
			// ns/op across different effective GOMAXPROCS is an
			// apples-to-oranges wall-clock comparison (a 1-core baseline
			// replayed on an 8-core host, or vice versa), so the slowdown
			// gate degrades to a warning; rounds and allocs stay hard
			// gates — they are host-independent.
			bp, cp := entryGomaxprocs(b, baseline), entryGomaxprocs(cur, current)
			if bp != cp {
				log = append(log, fmt.Sprintf(
					"%-28s WARNING ns/op %.2fx baseline, not gated: baseline GOMAXPROCS %d != current %d",
					cur.Name, ratio, bp, cp))
			} else {
				failures = append(failures, fmt.Sprintf(
					"%s: ns/op %.0f is %.2fx the baseline %.0f (limit %.2fx)",
					cur.Name, cur.NsPerOp, ratio, b.NsPerOp, maxSlowdown))
				continue
			}
		}
		if b.AllocsPerOp > 0 {
			allocRatio := float64(cur.AllocsPerOp) / float64(b.AllocsPerOp)
			if allocRatio > maxAllocGrowth {
				failures = append(failures, fmt.Sprintf(
					"%s: allocs/op %d is %.2fx the baseline %d (limit %.2fx) — a solve-path buffer stopped being reused within the solve",
					cur.Name, cur.AllocsPerOp, allocRatio, b.AllocsPerOp, maxAllocGrowth))
				continue
			}
		}
		log = append(log, fmt.Sprintf("%-28s rounds %.0f ok, ns/op %.2fx, allocs/op %d vs %d baseline",
			cur.Name, cur.RoundsPerOp, ratio, cur.AllocsPerOp, b.AllocsPerOp))
	}
	if !partial {
		for _, b := range baseline.Benchmarks {
			if !seen[b.Name] {
				failures = append(failures, fmt.Sprintf("%s: in baseline but not measured (suite shrank?)", b.Name))
			}
		}
	}
	return failures, log
}

// approxWinFailures enforces the approximate-frontier invariant on a
// measured report: wherever an E4 exact/approx pair was measured on the
// same graph, the (1+ε) chain must charge strictly fewer rounds than the
// exact pipeline — the round-count win is the point of the strategy, so
// losing it is a regression even if every pinned number still matches.
func approxWinFailures(rep *Report) []string {
	rounds := make(map[string]float64, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		rounds[r.Name] = r.RoundsPerOp
	}
	var failures []string
	for name, exact := range rounds {
		var n int
		if _, err := fmt.Sscanf(name, "E4APSPQuantumNonneg/n=%d", &n); err != nil {
			continue
		}
		approxName := fmt.Sprintf("E4APSPApproxQuantum/n=%d/eps=0.5", n)
		approx, ok := rounds[approxName]
		if !ok {
			continue
		}
		if approx >= exact {
			failures = append(failures, fmt.Sprintf(
				"%s: rounds/op %.0f is not strictly below the exact pipeline's %.0f (%s) — the approximate chain lost its round win",
				approxName, approx, exact, name))
		}
	}
	return failures
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in baseline", path)
	}
	if rep.RoundsSeed != roundsSeed {
		return nil, fmt.Errorf("%s: baseline rounds measured at seed %d, this binary pins seed %d — regenerate the baseline",
			path, rep.RoundsSeed, uint64(roundsSeed))
	}
	return &rep, nil
}

// defaultMaxSlowdown is -max-slowdown's default: the wall-clock noise
// tolerance between a re-measured ns/op and its committed baseline.
const defaultMaxSlowdown = 2.5

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run is main without the exit, so deferred cleanup (the CPU profile's
// flush) also runs when the gate fails.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "", "write the JSON report to this path (default: stdout)")
	label := fs.String("label", "dev", "label recorded in the report")
	quick := fs.Bool("quick", false, "skip the slow large-n configurations")
	stages := fs.Bool("stages", false, "include the per-stage round breakdown column in the report (the stage-sum gate runs regardless)")
	planner := fs.Bool("planner", false, "include the planner-accuracy column: a strategy=auto solve per bench graph with the chosen strategy and round-prediction error")
	check := fs.String("check", "", "compare against this baseline report and exit 1 on regression")
	maxSlowdown := fs.Float64("max-slowdown", defaultMaxSlowdown, "ns/op regression tolerance for -check")
	maxAllocGrowth := fs.Float64("max-alloc-growth", 1.5, "allocs/op regression tolerance for -check")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the measurement run to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile (post-run, after GC) to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Load the baseline before the (multi-minute) measurement run so a
	// bad path or stale format fails fast.
	var baseline *Report
	if *check != "" {
		if baseline, err = loadReport(*check); err != nil {
			return err
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	rep, err := buildReport(*label, *quick, *stages)
	if err != nil {
		return err
	}
	if *planner {
		if rep.Planner, err = plannerAccuracy(*quick); err != nil {
			return err
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	// Write the measured report first (when requested) so that even a
	// failing gate run leaves the evidence behind — CI uploads it as a
	// workflow artifact.
	if *out != "" || baseline == nil {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
		} else {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
		}
	}

	// The approximate-frontier invariant holds on every measured report —
	// including plain -out runs, so a baseline that lost the round win can
	// never be committed in the first place.
	if failures := approxWinFailures(rep); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d approximate-frontier regression(s)", len(failures))
	}

	if baseline != nil {
		failures, log := compareReports(baseline, rep, *maxSlowdown, *maxAllocGrowth, *quick)
		for _, line := range log {
			fmt.Println(line)
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "FAIL:", f)
			}
			return fmt.Errorf("%d regression(s) against %s", len(failures), *check)
		}
		fmt.Printf("bench: %d benchmarks match %s (rounds exact, stretch exact, ns/op within %.2fx, allocs/op within %.2fx)\n",
			len(rep.Benchmarks), *check, *maxSlowdown, *maxAllocGrowth)
	}
	return nil
}
