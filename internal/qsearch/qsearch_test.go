package qsearch

import (
	"errors"
	"math"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/xrand"
)

func newNet(t *testing.T, n int) *congest.Network {
	t.Helper()
	nw, err := congest.NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// search runs a single distributed quantum search (the Section 4.1
// framework with m = 1): find any x with g(x) = 1 through the given
// evaluation procedure.
func search(net *congest.Network, spaceSize int, eval EvalFunc, rng *xrand.Source) (*Result, error) {
	return MultiSearch(net, Spec{SpaceSize: spaceSize, Instances: 1, Eval: eval}, rng)
}

// foundCount returns the number of instances of r that found a witness.
func foundCount(r *Result) int {
	c := 0
	for _, f := range r.Found {
		if f {
			c++
		}
	}
	return c
}

func TestSearchFindsWitness(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 30; trial++ {
		r := rng.SplitN("t", trial)
		nw := newNet(t, 4)
		size := 4 + r.IntN(40)
		target := r.IntN(size)
		table := make([]bool, size)
		table[target] = true
		res, err := search(nw, size, LocalEval([][]bool{table}, 1), r)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found[0] || res.Witness[0] != target {
			t.Fatalf("trial %d: %+v", trial, res)
		}
	}
}

func TestSearchNoWitness(t *testing.T) {
	rng := xrand.New(2)
	nw := newNet(t, 4)
	res, err := search(nw, 16, LocalEval([][]bool{make([]bool, 16)}, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found[0] {
		t.Error("found witness in empty oracle")
	}
	if res.Witness[0] != -1 {
		t.Error("witness must be -1 when not found")
	}
}

func TestMultiSearchAllInstances(t *testing.T) {
	rng := xrand.New(3)
	nw := newNet(t, 4)
	const m, size = 20, 25
	tables := make([][]bool, m)
	targets := make([]int, m)
	for i := range tables {
		tables[i] = make([]bool, size)
		targets[i] = rng.IntN(size)
		tables[i][targets[i]] = true
	}
	res, err := MultiSearch(nw, Spec{SpaceSize: size, Instances: m, Eval: LocalEval(tables, 2)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllFound() {
		t.Fatalf("only %d/%d found", foundCount(res), m)
	}
	for i, w := range res.Witness {
		if w != targets[i] {
			t.Errorf("instance %d: witness %d, want %d", i, w, targets[i])
		}
	}
}

func TestMultiSearchMixedEmptyAndNonempty(t *testing.T) {
	rng := xrand.New(4)
	nw := newNet(t, 4)
	const size = 16
	tables := [][]bool{
		make([]bool, size), // empty
		make([]bool, size),
		make([]bool, size), // empty
	}
	tables[1][7] = true
	res, err := MultiSearch(nw, Spec{SpaceSize: size, Instances: 3, Eval: LocalEval(tables, 1)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found[0] || res.Found[2] {
		t.Error("empty instances must not report witnesses")
	}
	if !res.Found[1] || res.Witness[1] != 7 {
		t.Errorf("instance 1: %+v", res)
	}
	if foundCount(res) != 1 {
		t.Errorf("found %d, want 1", foundCount(res))
	}
}

func TestRoundAccountingIsCallsTimesEvalCost(t *testing.T) {
	rng := xrand.New(5)
	nw := newNet(t, 4)
	const evalRounds = 3
	table := make([]bool, 16)
	table[5] = true
	res, err := search(nw, 16, LocalEval([][]bool{table}, evalRounds), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.EvalRounds != evalRounds {
		t.Fatalf("measured eval rounds = %d, want %d", res.EvalRounds, evalRounds)
	}
	// Total = oracle calls at the measured eval cost, plus the one-word
	// early-stop convergecast per pass.
	want := res.EvalCalls*evalRounds + int64(res.Passes)
	if nw.Rounds() != want {
		t.Errorf("network rounds = %d, want EvalCalls(%d)×EvalRounds(%d)+Passes(%d) = %d",
			nw.Rounds(), res.EvalCalls, evalRounds, res.Passes, want)
	}
}

func TestCostScalesLikeSqrtSpace(t *testing.T) {
	// Õ(r√|X|): compare eval-call counts for |X|=16 vs |X|=1024 single-
	// instance searches; ratio should be far below the linear 64x.
	rng := xrand.New(6)
	avgCalls := func(size int) float64 {
		var total int64
		const trials = 25
		for i := 0; i < trials; i++ {
			r := rng.SplitN("s", size*1000+i)
			nw := newNet(t, 4)
			table := make([]bool, size)
			table[r.IntN(size)] = true
			res, err := search(nw, size, LocalEval([][]bool{table}, 1), r)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found[0] {
				t.Fatalf("size %d: not found", size)
			}
			total += res.EvalCalls
		}
		return float64(total) / trials
	}
	small := avgCalls(16)
	big := avgCalls(1024)
	if ratio := big / small; ratio > 24 {
		t.Errorf("eval-call ratio %f (small=%f, big=%f) suggests super-√ scaling", ratio, small, big)
	}
}

func TestSpecValidation(t *testing.T) {
	rng := xrand.New(7)
	nw := newNet(t, 4)
	if _, err := MultiSearch(nw, Spec{SpaceSize: 0, Instances: 1, Eval: LocalEval(nil, 0)}, rng); err == nil {
		t.Error("zero space must fail")
	}
	if _, err := MultiSearch(nw, Spec{SpaceSize: 4, Instances: 0, Eval: LocalEval(nil, 0)}, rng); err == nil {
		t.Error("zero instances must fail")
	}
	if _, err := MultiSearch(nw, Spec{SpaceSize: 4, Instances: 1}, rng); err == nil {
		t.Error("nil eval must fail")
	}
	// Malformed tables or row indexes: an error, never a panic, at every
	// worker count. The index is checked where the evaluation builds it,
	// its shape where MultiSearch reads it.
	rows := [][]bool{make([]bool, 4), {false, true, false, false}}
	for _, tc := range []struct {
		name          string
		rows          [][]bool
		starts, insts []int32
	}{
		{"missing tables", nil, nil, nil},
		{"index shorter than the instances", rows, []int32{0, 1, 1}, []int32{0}},
		{"index longer than the instances", rows, []int32{0, 1, 3}, []int32{0, 1, 2}},
		{"negative instance", rows, []int32{0, 1, 2}, []int32{1, -1}},
		{"instance past the instances", rows, []int32{0, 1, 2}, []int32{0, 2}},
		{"short row", [][]bool{make([]bool, 4), make([]bool, 3)}, []int32{0, 1, 2}, []int32{0, 1}},
		{"no row starts", rows, nil, []int32{0, 1}},
		{"row starts not at 0", rows, []int32{1, 1, 2}, []int32{0, 1}},
		{"row starts that decrease", rows, []int32{0, 2, 1}, []int32{0, 1}},
		{"row starts past the instances", rows, []int32{0, 3, 3}, []int32{0, 1}},
		{"instance listed twice", rows, []int32{0, 1, 2}, []int32{1, 1}},
		{"instance missing", rows, []int32{0, 1, 1}, []int32{0, 1}},
		{"more rows than the tables", rows, []int32{0, 1, 2, 2}, []int32{0, 1}},
		{"fewer rows than the tables", rows, []int32{0, 2}, []int32{1, 0}},
	} {
		eval := func(*congest.Network) (Tables, error) {
			if tc.starts == nil && tc.insts == nil {
				return Tables{Rows: tc.rows}, nil
			}
			index, err := NewRowIndex(tc.starts, tc.insts)
			return Tables{Rows: tc.rows, Index: index}, err
		}
		for _, workers := range []int{2, 4} {
			if _, err := MultiSearch(nw, Spec{SpaceSize: 4, Instances: 2, Eval: eval, Workers: workers}, rng); err == nil {
				t.Errorf("%s at %d workers must fail", tc.name, workers)
			}
		}
	}
}

func TestEvalErrorPropagates(t *testing.T) {
	rng := xrand.New(8)
	nw := newNet(t, 4)
	wantErr := errors.New("overloaded")
	eval := func(net *congest.Network) (Tables, error) { return Tables{}, wantErr }
	if _, err := MultiSearch(nw, Spec{SpaceSize: 4, Instances: 1, Eval: eval}, rng); !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped %v", err, wantErr)
	}
}

func TestTruncationAccounting(t *testing.T) {
	rng := xrand.New(9)
	nw := newNet(t, 4)
	// Large m relative to |X| with β > 8m/|X| satisfies Theorem 3 and the
	// bound must be minuscule.
	const m, size = 4000, 8
	tables := make([][]bool, m)
	for i := range tables {
		tables[i] = make([]bool, size)
		tables[i][i%size] = true
	}
	beta := 8*float64(m)/float64(size) + 100
	res, err := MultiSearch(nw, Spec{
		SpaceSize: size,
		Instances: m,
		Eval:      LocalEval(tables, 1),
		Beta:      beta,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PreconditionsHold {
		t.Error("Theorem 3 preconditions should hold")
	}
	if res.TruncationErrorBound > 1.0/float64(m*m) {
		t.Errorf("truncation bound %g exceeds 1/m² = %g", res.TruncationErrorBound, 1.0/float64(m*m))
	}
	if !res.AllFound() {
		t.Errorf("found %d/%d", foundCount(res), m)
	}
}

func TestTruncationFailureInjection(t *testing.T) {
	// A pathological regime (tiny m, large |X|) makes the deviation bound
	// saturate at 1, so injection must fire and surface ErrTruncation.
	rng := xrand.New(10)
	nw := newNet(t, 4)
	tables := [][]bool{make([]bool, 64), make([]bool, 64)}
	_, err := MultiSearch(nw, Spec{
		SpaceSize: 64,
		Instances: 2,
		Eval:      LocalEval(tables, 1),
		Beta:      1,
	}, rng)
	if !errors.Is(err, ErrTruncation) {
		t.Errorf("err = %v, want ErrTruncation", err)
	}
	// With injection disabled, the same spec succeeds and reports the bound.
	res, err := MultiSearch(nw, Spec{
		SpaceSize:               64,
		Instances:               2,
		Eval:                    LocalEval(tables, 1),
		Beta:                    1,
		DisableFailureInjection: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.TruncationErrorBound != 1 {
		t.Errorf("bound = %f, want saturated 1", res.TruncationErrorBound)
	}
	if res.PreconditionsHold {
		t.Error("preconditions must not hold in the pathological regime")
	}
}

func TestPassesOverride(t *testing.T) {
	rng := xrand.New(11)
	nw := newNet(t, 4)
	table := make([]bool, 9)
	table[2] = true
	res, err := MultiSearch(nw, Spec{
		SpaceSize: 9, Instances: 1, Eval: LocalEval([][]bool{table}, 1), Passes: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Errorf("passes = %d, want 1", res.Passes)
	}
}

func TestDefaultPassesLogarithmic(t *testing.T) {
	if p := defaultPasses(1); p < 1 {
		t.Error("at least one pass required")
	}
	p1024 := defaultPasses(1024)
	if p1024 != 3+2*10 {
		t.Errorf("defaultPasses(1024) = %d", p1024)
	}
	// Growth is logarithmic: doubling m adds a constant.
	if d := defaultPasses(2048) - p1024; d != 2 {
		t.Errorf("pass growth per doubling = %d", d)
	}
}

func TestMultiSearchSuccessRateMeetsTheorem3(t *testing.T) {
	// Empirical check of the 1 - 2/m² style guarantee: across many seeded
	// runs with solvable instances, the all-found rate must be ≥ 95%.
	rng := xrand.New(12)
	const runs = 40
	failures := 0
	for run := 0; run < runs; run++ {
		r := rng.SplitN("run", run)
		nw := newNet(t, 4)
		const m, size = 30, 16
		tables := make([][]bool, m)
		for i := range tables {
			tables[i] = make([]bool, size)
			tables[i][r.IntN(size)] = true
		}
		res, err := MultiSearch(nw, Spec{SpaceSize: size, Instances: m, Eval: LocalEval(tables, 1)}, r)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllFound() {
			failures++
		}
	}
	if float64(failures)/runs > 0.05 {
		t.Errorf("multi-search failed %d/%d runs", failures, runs)
	}
}

func TestIterationsBoundedBySchedule(t *testing.T) {
	rng := xrand.New(13)
	nw := newNet(t, 4)
	const size = 64
	res, err := search(nw, size, LocalEval([][]bool{make([]bool, size)}, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Per pass: maxRounds drawing j ≤ √|X| each → iterations bounded by
	// passes × maxRounds × (√|X|+1).
	maxRounds := 4 + 3*int(math.Ceil(math.Log2(float64(size+1))))
	bound := int64(res.Passes) * int64(maxRounds) * int64(math.Sqrt(size)+1)
	if res.Iterations > bound {
		t.Errorf("iterations %d exceed schedule bound %d", res.Iterations, bound)
	}
}
