package qsearch

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/par"
	"qclique/internal/quantum"
	"qclique/internal/xrand"
)

// groupByRow builds the row index of an instance→row map over rows rows
// with a counting sort, in instance order within each row.
func groupByRow(t testing.TB, of []int32, rows int) RowIndex {
	t.Helper()
	starts := make([]int32, rows+1)
	for _, r := range of {
		starts[r+1]++
	}
	for r := 0; r < rows; r++ {
		starts[r+1] += starts[r]
	}
	next := slices.Clone(starts[:rows])
	insts := make([]int32, len(of))
	for i, r := range of {
		insts[next[r]] = int32(i)
		next[r]++
	}
	index, err := NewRowIndex(starts, insts)
	if err != nil {
		t.Fatal(err)
	}
	return index
}

// referenceMultiSearch is MultiSearch as it ran before probes were grouped
// by row: one pass over every instance to find the feasible ones, and one
// probe per alive instance per round, each evolving the instance's row
// afresh into its own measurement table and measuring it with one draw. It
// is the oracle the row-wise search is held to.
func referenceMultiSearch(net *congest.Network, spec Spec, rng *xrand.Source) (*Result, error) {
	if spec.SpaceSize <= 0 {
		return nil, fmt.Errorf("qsearch: space size %d", spec.SpaceSize)
	}
	if spec.Instances <= 0 {
		return nil, fmt.Errorf("qsearch: instance count %d", spec.Instances)
	}
	if spec.Eval == nil {
		return nil, errors.New("qsearch: nil evaluation procedure")
	}
	baseline := net.Metrics()
	tabs, err := spec.Eval(net)
	if err != nil {
		return nil, fmt.Errorf("qsearch: evaluation procedure: %w", err)
	}
	evalCost := net.DeltaSince(baseline)
	if tabs.Index.Instances() != spec.Instances || tabs.Index.Rows() != len(tabs.Rows) {
		return nil, fmt.Errorf("qsearch: index of %d instances in %d rows for %d instances in %d rows",
			tabs.Index.Instances(), tabs.Index.Rows(), spec.Instances, len(tabs.Rows))
	}
	rows := tabs.Rows
	of := make([]int32, spec.Instances)
	for r := range rows {
		for _, i := range tabs.Index.Row(r) {
			of[i] = int32(r)
		}
	}

	res := &Result{
		Found:      make([]bool, spec.Instances),
		Witness:    make([]int, spec.Instances),
		EvalRounds: evalCost.Rounds,
	}
	for i := range res.Witness {
		res.Witness[i] = -1
	}
	res.EvalCalls = 1

	passes := spec.Passes
	if passes <= 0 {
		passes = defaultPasses(spec.Instances)
	}
	sqrtX := math.Sqrt(float64(spec.SpaceSize))
	maxRounds := 4 + 3*int(math.Ceil(math.Log2(float64(spec.SpaceSize+1))))
	const lambda = 6.0 / 5.0

	rowOK := make([]bool, len(rows))
	for r, row := range rows {
		if len(row) != spec.SpaceSize {
			return nil, fmt.Errorf("qsearch: row %d has %d entries, want %d", r, len(row), spec.SpaceSize)
		}
		rowOK[r] = slices.Contains(row, true)
	}
	var feasibleIdx []int32
	for i, r := range of {
		if rowOK[r] {
			feasibleIdx = append(feasibleIdx, int32(i))
		}
	}
	remaining := len(feasibleIdx)

	workers := min(par.Workers(spec.Workers), len(feasibleIdx))
	if workers < 1 {
		workers = 1
	}
	alive := slices.Clone(feasibleIdx)
	probeX := make([]int32, spec.Instances)
	probeHit := make([]bool, spec.Instances)
	scratchRng := make([]*xrand.Source, workers)
	for w := range scratchRng {
		scratchRng[w] = xrand.New(0)
	}
	probeSplit := rng.SplitterFor("probe")

	for pass := 0; pass < passes; pass++ {
		res.Passes++
		mcur := 1.0
		for round := 0; round < maxRounds; round++ {
			j := rng.IntN(int(math.Ceil(mcur)) + 1)
			res.Iterations += int64(j)
			res.EvalCalls += int64(j) + 1
			probeKey := pass*1_000_003 + round*1009
			par.ForEachWorker(workers, len(alive), func(w, k int) {
				i := int(alive[k])
				row := rows[of[i]]
				x := quantum.Measure(quantum.MeasurementTable(row, j, nil), probeSplit.Into(scratchRng[w], probeKey+i).Float64())
				probeX[i] = int32(x)
				probeHit[i] = row[x]
			})
			for k := 0; k < len(alive); {
				ia := alive[k]
				if probeHit[ia] {
					res.Found[ia] = true
					res.Witness[ia] = int(probeX[ia])
					remaining--
					alive[k] = alive[len(alive)-1]
					alive = alive[:len(alive)-1]
				} else {
					k++
				}
			}
			mcur = math.Min(lambda*mcur, sqrtX)
		}
		if remaining == 0 {
			break
		}
	}
	if err := net.BroadcastAll("qsearch/converge", int64(res.Passes)); err != nil {
		return nil, err
	}
	net.ReplayCharge("qsearch/oracle", evalCost, res.EvalCalls-1)

	if spec.Beta > 0 {
		res.PreconditionsHold = quantum.Theorem3Preconditions(spec.Instances, spec.SpaceSize, spec.Beta)
		dev := quantum.TruncationDeviationBound(res.Iterations, spec.Instances, spec.SpaceSize)
		if dev > 1 {
			dev = 1
		}
		res.TruncationErrorBound = dev
		if !spec.DisableFailureInjection && rng.Split("trunc").Bool(dev) {
			return res, ErrTruncation
		}
	}
	return res, nil
}

// FuzzMultiSearchMatchesReference holds the row-wise MultiSearch to the
// per-instance reference: rows shared by random instance sets, listed in a
// random order within each row, at |X| 1…32, m up to 2,000, workers 1–4,
// with and without a reused Scratch, with a Passes override, and with
// Beta > 0 and failure injection on. Every decision must agree: the found
// set, witnesses, the rows that found one, the found count, the schedule,
// the truncation bound and outcome, and the rounds charged.
func FuzzMultiSearchMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint16(14), uint8(16), uint8(20), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(1999), uint16(142), uint8(13), uint8(8), uint8(4), uint8(0), uint8(1))   // the E1 shape: about 14 instances per row
	f.Add(uint64(3), uint16(50), uint16(0), uint8(7), uint8(128), uint8(1), uint8(2), uint8(0))      // one row shared by every instance
	f.Add(uint64(4), uint16(299), uint16(299), uint8(0), uint8(200), uint8(3), uint8(0), uint8(2))   // |X| = 1, k = m
	f.Add(uint64(5), uint16(120), uint16(30), uint8(9), uint8(0), uint8(2), uint8(1), uint8(0))      // no row feasible
	f.Add(uint64(6), uint16(40), uint16(39), uint8(31), uint8(255), uint8(3), uint8(3), uint8(3))    // every entry marked, injection fires
	f.Add(uint64(8), uint16(1998), uint16(1998), uint8(1), uint8(128), uint8(1), uint8(1), uint8(0)) // |X| = 2, one pass: 3 satisfiable instances miss
	f.Fuzz(func(t *testing.T, seed uint64, m, k uint16, size, density, workers, passes, beta uint8) {
		nm := 1 + int(m)%2000
		nk := 1 + int(k)%nm
		nx := 1 + int(size)%32
		nw := 1 + int(workers)%4
		rng := xrand.New(seed)
		rows := make([][]bool, nk)
		for r := range rows {
			rows[r] = make([]bool, nx)
			for x := range rows[r] {
				rows[r][x] = rng.Bool(float64(density) / 255)
			}
		}
		of := make([]int32, nm)
		for i := range of {
			of[i] = int32(rng.IntN(nk))
		}
		index := groupByRow(t, of, nk)
		for r := 0; r < nk; r++ {
			row := index.Row(r)
			rng.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
		}
		eval := func(net *congest.Network) (Tables, error) {
			if err := net.BroadcastAll("qsearch/local-eval", 1); err != nil {
				return Tables{}, err
			}
			return Tables{Rows: rows, Index: index}, nil
		}
		// beta 0 runs untruncated; otherwise β is small enough that the
		// deviation bound is large and injection often fires.
		spec := Spec{SpaceSize: nx, Instances: nm, Eval: eval, Workers: nw, Passes: int(passes) % 4, Beta: float64(beta%4) * 2}

		refNet, err := congest.NewNetwork(4)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := referenceMultiSearch(refNet, spec, xrand.New(seed))
		if wantErr != nil && !errors.Is(wantErr, ErrTruncation) {
			t.Fatal(wantErr)
		}
		wantRowFound := make([]bool, nk)
		wantCount := 0
		for i, ok := range want.Found {
			if ok {
				wantRowFound[of[i]] = true
				wantCount++
			}
		}

		sc := &Scratch{}
		for _, scratch := range []*Scratch{nil, sc, sc} {
			spec.Scratch = scratch
			net, err := congest.NewNetwork(4)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := MultiSearch(net, spec, xrand.New(seed))
			shape := fmt.Sprintf("m=%d k=%d |X|=%d workers=%d passes=%d beta=%g scratch=%v", nm, nk, nx, nw, spec.Passes, spec.Beta, scratch != nil)
			if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, reference %v", shape, gotErr, wantErr)
			}
			if got.EvalRounds != want.EvalRounds || got.EvalCalls != want.EvalCalls || got.Iterations != want.Iterations ||
				got.Passes != want.Passes || got.TruncationErrorBound != want.TruncationErrorBound ||
				got.PreconditionsHold != want.PreconditionsHold || net.Rounds() != refNet.Rounds() {
				t.Fatalf("%s: evalRounds/evalCalls/iterations/passes/bound/preconditions/rounds %d/%d/%d/%d/%g/%v/%d, reference %d/%d/%d/%d/%g/%v/%d",
					shape, got.EvalRounds, got.EvalCalls, got.Iterations, got.Passes, got.TruncationErrorBound, got.PreconditionsHold, net.Rounds(),
					want.EvalRounds, want.EvalCalls, want.Iterations, want.Passes, want.TruncationErrorBound, want.PreconditionsHold, refNet.Rounds())
			}
			if got.FoundCount != wantCount || got.AllFound() != (wantCount == nm) {
				t.Fatalf("%s: found %d (all %v), reference %d", shape, got.FoundCount, got.AllFound(), wantCount)
			}
			if !slices.Equal(got.Found, want.Found) || !slices.Equal(got.Witness, want.Witness) {
				for i := range want.Found {
					if got.Found[i] != want.Found[i] || got.Witness[i] != want.Witness[i] {
						t.Fatalf("%s: instance %d (row %d) found %v witness %d, reference %v %d",
							shape, i, of[i], got.Found[i], got.Witness[i], want.Found[i], want.Witness[i])
					}
				}
				t.Fatalf("%s: result lengths %d/%d, reference %d", shape, len(got.Found), len(got.Witness), nm)
			}
			if !slices.Equal(got.RowFound, wantRowFound) {
				t.Fatalf("%s: rows found %v, reference %v", shape, got.RowFound, wantRowFound)
			}
		}
	})
}
