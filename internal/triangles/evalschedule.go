package triangles

import (
	"fmt"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/par"
	"qclique/internal/qsearch"
	"qclique/internal/xrand"
)

// This file implements the evaluation procedures of Figures 4 (class
// α = 0) and 5 (α > 0): the fixed, input-independent communication
// schedule through which the search-labeled nodes (u,v,x) query the
// triple-labeled nodes (u,v,w) during the distributed Grover searches.
//
// Simulation contract (see package qsearch): the schedule is executed once
// per multi-search with a sampled *typical* query assignment — each
// instance queries one uniformly random element of its search space, which
// is exactly the marginal the initial Grover superposition induces — and
// the slot caps of the C̃m contract are enforced on it (overflow ⇒ abort,
// the paper's "error message" branch). The measured schedule cost is then
// charged once per oracle call. Truth tables are computed from the Step 1
// placement data that the queried triple nodes hold, one row per unique
// (unordered group, pair) question: the groups (u,v) and (v,u) search the
// same class list with the same pair, so their instances share a row.
// Step 2 indexes the instances by row once per attempt, and every class
// search reads that index, so the multi-search evolves each row once per
// round for all the instances that share it. Every instance still draws
// its own query and charges its own loads.

// SlotOverflowError reports a C̃m truncation abort: some query list
// exceeded the Figure 4/5 slot cap.
type SlotOverflowError struct {
	Label  SearchLabel
	WBlock int
	Count  int
	Cap    int
	Alpha  int
}

func (e *SlotOverflowError) Error() string {
	return fmt.Sprintf("triangles: eval slot overflow at (%d,%d,x=%d)→w=%d for α=%d: %d entries, cap %d",
		e.Label.U, e.Label.V, e.Label.X, e.WBlock, e.Alpha, e.Count, e.Cap)
}

// pairRow is one unique truth-table row: a kept pair of the unordered
// group {u,v}, with its weight f(pair) in G. group is (u,v) with u ≤ v, the
// orientation the row is computed in.
type pairRow struct {
	group  int
	pair   graph.Pair
	weight int64
}

// searchState is the Step 2 outcome: the coverings, the unique (unordered
// group, pair) rows, and the index of the multi-searches' instances by
// row. A search instance is one kept pair of one label's covering;
// instances are numbered in label order, and every instance of a pair, in
// either orientation of its group, answers that pair's row.
type searchState struct {
	pt        *Partitions
	coverings []Covering // indexed by SearchIndex
	rows      []pairRow
	index     qsearch.RowIndex
}

// runCoverings executes Step 2 of ComputePairs: every search-labeled node
// samples its covering Λx(u,v), then loads the pair weights from the pair
// owners and keeps the pairs that are in S and present in G. Aborts with
// NotWellBalancedError when Lemma 2's balance condition fails.
//
// When the sampling probability clips at 1 the sampler draws no randomness
// and every Λx(u,v) is all of P(u,v), so the group's covering is sampled,
// filtered and owner-tallied once, at x = 0, and shared by the group's
// other labels. Each label still charges its own owner loads, the group
// tally minus the owner that is the label's own node, in the order the
// per-label path emits them, so the charge is the same either way. The
// owner tally counts every sampled pair before the S and edge filters, so
// there the load list depends only on the partitions: it is built and
// tallied once per n, and every other promise call commits the cached
// tally.
//
// Step 2 also lists the search instances and their truth-table rows, and
// indexes the instances by row, once per attempt: every class evaluation
// and search reuses them.
func runCoverings(net *congest.Network, pt *Partitions, inst *Instance, params Params, sc *Scratch, rng *xrand.Source) (*searchState, error) {
	n := pt.N()
	numLabels := pt.NumSearchLabels()
	numFine := pt.NumFine()
	shared := params.coverSampleProb(n) >= 1
	if cap(sc.covs) < numLabels {
		sc.covs = make([]Covering, numLabels)
	}
	// Every entry of the covering slice is assigned below before the state
	// is read, so the scratch-backed slice needs no clearing.
	st := &searchState{pt: pt, coverings: sc.covs[:numLabels]}
	// Pre-size the arenas from the expected covering mass (|P(u,v)|·prob
	// summed over the labels that sample): Step 2 runs once per promise
	// call on the full-pipeline hot loop and buffer regrowth here
	// dominated the allocation profile. The kept pairs and weights are
	// carved out of two scratch arenas reused across promise calls; the
	// sampling scratch is reused across labels. The load list is the
	// scratch's (see Scratch.loadList); a label sends to at most one owner
	// per vertex of its group's lower block. It is not built at all when
	// the clipped list's tally is cached, and where it is, the cache keeps
	// its own copy.
	expected := pt.expectedCoveringPairs(params)
	if shared {
		expected /= numFine
	}
	cached := shared && sc.covCharge.current(net, n)
	loads := sc.loadList(2 * numLabels * len(pt.Coarse[0]))
	if cap(sc.pairsArena) < expected+64 {
		sc.pairsArena = make([]graph.Pair, 0, expected+64)
	}
	if cap(sc.weightsArena) < expected+64 {
		sc.weightsArena = make([]int64, 0, expected+64)
	}
	pairsArena := sc.pairsArena[:0]
	weightsArena := sc.weightsArena[:0]
	sampleBuf := sc.sampleBuf
	perVertex := par.Grow(sc.perVertex, n)
	sc.perVertex = perVertex
	clear(perVertex)
	ownerCount := par.Grow(sc.ownerCount, n)
	sc.ownerCount = ownerCount
	clear(ownerCount)
	if cap(sc.ownerTouched) < n {
		sc.ownerTouched = make([]int32, 0, n)
	}
	ownerTouched := sc.ownerTouched[:0]
	covSplit := rng.SplitterFor("covering")
	var cov Covering
	for li := 0; li < numLabels; li++ {
		label := pt.SearchFromIndex(li)
		dst := pt.SearchNode(label)
		if !shared || label.X == 0 {
			pairs, err := pt.sampleCoveringBuf(label, params, covSplit.Into(sc.sampleRng(), li), sampleBuf, perVertex)
			if err != nil {
				_ = net.Broadcast("computepairs/step2-abort", dst, 1)
				return nil, err
			}
			sampleBuf = pairs
			for _, o := range ownerTouched {
				ownerCount[o] = 0
			}
			ownerTouched = ownerTouched[:0]
			pStart := len(pairsArena)
			// For labels with U < V the sampler walks U in its outer loop,
			// so consecutive pairs usually share a weight row; re-fetch it
			// only when U changes (flipped labels just miss the cache).
			lastU := -1
			var rowU []int64
			for _, pr := range pairs {
				// Request to the pair owner and two-word response (weight
				// + S-membership). Owner is the smaller endpoint by
				// convention; requests to the same owner are aggregated
				// into one load (the per-link accounting is identical
				// either way).
				if ownerCount[pr.U] == 0 {
					ownerTouched = append(ownerTouched, int32(pr.U))
				}
				ownerCount[pr.U]++
				// Direct row indexing instead of Weight(): pairs are
				// normalized U < V, so the diagonal guard is unnecessary
				// and the NoEdge test below is the whole of the ok check.
				if pr.U != lastU {
					rowU = inst.G.RowView(pr.U)
					lastU = pr.U
				}
				w := rowU[pr.V]
				if w == graph.NoEdge {
					continue
				}
				if inst.S != nil && !inst.S.Has(pr) {
					continue
				}
				pairsArena = append(pairsArena, pr)
				weightsArena = append(weightsArena, w)
			}
			// Arena regrowth leaves earlier coverings on the old backing
			// array, which stays correct: the slices are never written
			// again.
			end := len(pairsArena)
			cov.Pairs = pairsArena[pStart:end:end]
			cov.Weights = weightsArena[pStart:end:end]
		}
		cov.Label = label
		st.coverings[li] = cov
		if cached {
			continue
		}
		for _, o := range ownerTouched {
			if congest.NodeID(o) == dst { // own pairs need no request
				continue
			}
			words := 2 * int64(ownerCount[o])
			loads = append(loads,
				congest.Load{Src: dst, Dst: congest.NodeID(o), Words: words},
				congest.Load{Src: congest.NodeID(o), Dst: dst, Words: words},
			)
		}
	}
	// Retain the grown scratch buffers for the next promise call.
	sc.loads = loads
	sc.pairsArena = pairsArena
	sc.weightsArena = weightsArena
	sc.ownerTouched = ownerTouched
	sc.sampleBuf = sampleBuf
	var err error
	if shared {
		err = sc.covCharge.commit(net, "computepairs/step2-covering", n, func(dst []congest.Load) []congest.Load {
			return append(dst, loads...)
		})
	} else {
		err = net.ChargeBalanced("computepairs/step2-covering", loads)
	}
	if err != nil {
		return nil, err
	}
	st.rows, st.index, err = listInstances(st.coverings, pt, sc)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// listInstances flattens the coverings into search instances, in label
// order, dedups them into one truth-table row per (unordered group, pair),
// and indexes the instances by row. A pair {U,V} (U < V) can only appear in
// the group (CoarseOf(U), CoarseOf(V)) and its swap, and both orientations
// ask the same question of it: IdentifyClass gives (u,v,w) and (v,u,w) one
// class, so the two groups' class lists are equal, and the truth test is
// symmetric in the pair's endpoints. So a row is keyed by its pair; its
// group is the orientation u ≤ v it is computed in, and it lists the
// instances of (u,v) first, then those of (v,u). Each unordered group's
// rows and instances fill a range of the index of their own.
//
// Where the sampling probability clips, a group's labels share one
// covering slice, and a group and its swap hold the same pairs (P(u,v)
// filtered by S and G) in transposed order. Row p is then the (u,v)
// covering's pair p, answered by instance first + x·len(pairs) + p of every
// label x of each orientation: the (u,v) half is written directly, and the
// (v,u) half through the pair→row table. Otherwise the coverings of the
// two groups' labels overlap arbitrarily: rows are memoized through the
// same table, and the instances are grouped by row with a counting sort.
// The table is never cleared; an entry counts only when it names a row of
// the current unordered group that holds its pair.
func listInstances(coverings []Covering, pt *Partitions, sc *Scratch) ([]pairRow, qsearch.RowIndex, error) {
	n, q, numFine := pt.N(), pt.NumCoarse(), pt.NumFine()
	// Labels, and so instances, are numbered group by group: group g's
	// instances are groupFirst[g] … groupFirst[g+1]−1.
	groupFirst := par.Grow(sc.groupFirst, q*q+1)
	sc.groupFirst = groupFirst
	total := int32(0)
	for g := range q * q {
		groupFirst[g] = total
		for _, cov := range coverings[g*numFine : (g+1)*numFine] {
			total += int32(len(cov.Pairs))
		}
	}
	groupFirst[q*q] = total
	rows := sc.pairRows[:0]
	starts := append(sc.rowStarts[:0], 0)
	insts := par.Grow(sc.rowInsts, int(total))
	rowOf := par.Grow(sc.rowOf, n*n) // U·n+V → row
	sc.rowOf = rowOf
	slot := int32(0) // the unordered group's first slot of insts
	for u := range q {
		for v := u; v < q; v++ {
			g, sw := u*q+v, v*q+u
			labels := coverings[g*numFine : (g+1)*numFine]
			var swapped []Covering
			if sw != g {
				swapped = coverings[sw*numFine : (sw+1)*numFine]
			}
			firstRow := int32(len(rows))
			rowFor := func(pr graph.Pair) (int32, bool) {
				r := rowOf[pr.U*n+pr.V]
				return r, r >= firstRow && int(r) < len(rows) && rows[r].pair == pr
			}
			pairs := labels[0].Pairs
			if sharedCovering(labels) && (swapped == nil || sharedCovering(swapped) && len(swapped[0].Pairs) == len(pairs)) {
				k := int32(len(labels) + len(swapped)) // instances per row
				np := int32(len(pairs))
				first := groupFirst[g]
				for p, pr := range pairs {
					rowOf[pr.U*n+pr.V] = int32(len(rows))
					rows = append(rows, pairRow{group: g, pair: pr, weight: labels[0].Weights[p]})
					at := slot + int32(p)*k
					for x := range int32(len(labels)) {
						insts[at+x] = first + x*np + int32(p)
					}
					starts = append(starts, at+k)
				}
				if swapped != nil {
					first = groupFirst[sw]
					for p, pr := range swapped[0].Pairs {
						r, ok := rowFor(pr)
						if !ok {
							return nil, qsearch.RowIndex{}, fmt.Errorf("triangles: group (%d,%d) covers %v, group (%d,%d) does not", v, u, pr, u, v)
						}
						at := starts[r] + int32(len(labels))
						for x := range int32(len(swapped)) {
							insts[at+x] = first + x*np + int32(p)
						}
					}
				}
				slot += k * np
				continue
			}
			// starts[r+1] counts row r's instances as they are listed, then
			// holds row r's next free slot, and ends as row r's end, which
			// is row r+1's start.
			of := sc.instRow[:0] // the row of each of the two groups' instances
			for _, part := range [2][]Covering{labels, swapped} {
				for _, cov := range part {
					for pi, pr := range cov.Pairs {
						r, ok := rowFor(pr)
						if !ok {
							r = int32(len(rows))
							rowOf[pr.U*n+pr.V] = r
							rows = append(rows, pairRow{group: g, pair: pr, weight: cov.Weights[pi]})
							starts = append(starts, 0)
						}
						starts[r+1]++
						of = append(of, r)
					}
				}
			}
			sc.instRow = of
			next := slot
			for r := int(firstRow) + 1; r <= len(rows); r++ {
				c := starts[r]
				starts[r] = next
				next += c
			}
			m := groupFirst[g+1] - groupFirst[g] // (u,v)'s instances come first
			for i, r := range of {
				id := groupFirst[g] + int32(i)
				if int32(i) >= m {
					id = groupFirst[sw] + int32(i) - m
				}
				insts[starts[r+1]] = id
				starts[r+1]++
			}
			slot = next
		}
	}
	sc.pairRows, sc.rowStarts, sc.rowInsts = rows, starts, insts
	index, err := qsearch.NewRowIndex(starts, insts)
	return rows, index, err
}

// sharedCovering reports whether every label holds the same nonempty
// covering slice, as Step 2 leaves a group's labels where the sampling
// probability clips.
func sharedCovering(labels []Covering) bool {
	pairs := labels[0].Pairs
	for _, cov := range labels {
		if len(pairs) == 0 || len(cov.Pairs) != len(pairs) || &cov.Pairs[0] != &pairs[0] {
			return false
		}
	}
	return true
}

// evalBuilder assembles the class-α evaluation procedure.
type evalBuilder struct {
	pt         *Partitions
	pl         *placement
	st         *searchState
	params     Params
	alpha      int
	spaceSize  int     // padded: max |T_α[u,v]| over groups
	classLists [][]int // per group u*q+v: T_α[u,v]
	rng        *xrand.Source
	sc         *Scratch
	validate   bool
	workers    int // host-side parallelism for truth-table assembly
}

func newEvalBuilder(pt *Partitions, pl *placement, st *searchState, cls *classification, params Params, alpha int, sc *Scratch, rng *xrand.Source) *evalBuilder {
	q := pt.NumCoarse()
	// The class lists of the previous α are dead once this builder exists,
	// so both the list headers and the flat index arena are reused.
	if cap(sc.classLists) < q*q {
		sc.classLists = make([][]int, q*q)
	}
	lists := sc.classLists[:q*q]
	arena := sc.classArena[:0]
	size := 0
	// IdentifyClass gives (u,v,w) and (v,u,w) one class, so T_α[v,u] is
	// T_α[u,v], and the two groups share one list: the rows Step 2 shares
	// between them are computed against it.
	for u := 0; u < q; u++ {
		for v := u; v < q; v++ {
			start := len(arena)
			arena = cls.appendClassesFor(arena, u, v, alpha)
			lists[u*q+v] = arena[start:len(arena):len(arena)]
			lists[v*q+u] = lists[u*q+v]
			size = max(size, len(lists[u*q+v]))
		}
	}
	sc.classArena = arena
	return &evalBuilder{
		pt:         pt,
		pl:         pl,
		st:         st,
		params:     params,
		alpha:      alpha,
		spaceSize:  size,
		classLists: lists,
		rng:        rng,
		sc:         sc,
	}
}

// groupOf returns the group index of a search label. SearchIndex lays
// labels out as (u·q+v)·s + x, so the group is just the index divided by
// the fine-block count.
func (b *evalBuilder) groupOf(li int) int {
	return li / b.pt.NumFine()
}

// truthRow computes the oracle row for one pair in one group: entry i
// answers "does some w in fine block T_α[u,v][i] close a negative triangle
// with this pair". Negative triangle test (Definition 1):
// f(u,w) + f(w,v) < −f(u,v). (Figure 4 prints the comparison as
// min ≤ f(u,v); the strict-inequality form against −f(u,v) is the one
// consistent with Definition 1 and is what we implement.)
func (b *evalBuilder) truthRow(group int, pr graph.Pair, weight int64) []bool {
	row := make([]bool, b.spaceSize)
	b.truthRowInto(row, group, pr, weight)
	return row
}

// truthRowInto writes the oracle row into a caller-provided slice of
// length spaceSize (arena-backed in the evaluation procedure). The padding
// tail beyond this group's class list is cleared explicitly — the arena is
// recycled across evaluations, so stale marks must not survive.
func (b *evalBuilder) truthRowInto(row []bool, group int, pr graph.Pair, weight int64) {
	q := b.pt.NumCoarse()
	u, v := group/q, group%q
	a, bb := pr.U, pr.V
	if b.pt.CoarseOf(a) != u {
		a, bb = bb, a
	}
	list := b.classLists[group]
	bound := -weight
	// Each entry first tries the leg-minimum prune (exact; see
	// minSumBelow) and scans its fine block only when the two endpoints'
	// least legs into it could still sum below the bound.
	s := b.pt.NumFine()
	minA := b.pl.blockMin[a*s : (a+1)*s]
	minB := b.pl.blockMin[bb*s : (bb+1)*s]
	if b.pl.mode == DataDirect {
		// Hoist the two leg rows once per pair: every entry of the row
		// scans a different fine block of the same two graph rows.
		rowA := b.pl.legs.RowView(a)
		rowB := b.pl.legs.RowView(bb)
		for i, w := range list {
			if !minSumBelow(minA[w], minB[w], bound) {
				row[i] = false
				continue
			}
			fine := b.pt.Fine[w]
			row[i] = len(fine) > 0 && legSumBelow(rowA[fine[0]:fine[0]+len(fine)], rowB[fine[0]:fine[0]+len(fine)], bound)
		}
	} else {
		// DataFull: the triple index is group·s + w and the pair's
		// in-block offsets do not depend on w, so everything but the leg
		// scan hoists out of the per-entry loop.
		ai := indexInBlock(b.pt.Coarse[u], a)
		bi := indexInBlock(b.pt.Coarse[v], bb)
		for i, w := range list {
			if !minSumBelow(minA[w], minB[w], bound) {
				row[i] = false
				continue
			}
			td := &b.pl.data[group*s+w]
			sW := len(b.pt.Fine[w])
			row[i] = legSumBelow(td.legsUW[ai*sW:(ai+1)*sW], td.legsWV[bi*sW:(bi+1)*sW], bound)
		}
	}
	clear(row[len(list):])
}

// evalFunc returns the qsearch evaluation procedure for this class.
func (b *evalBuilder) evalFunc() qsearch.EvalFunc {
	return func(net *congest.Network) (qsearch.Tables, error) {
		n := b.pt.N()
		dup := b.params.duplication(n, b.alpha)
		slotCap := b.params.slotCap(n, b.alpha)

		// Figure 5 Step 0 (α > 0 with a duplication factor): every triple
		// node of class α broadcasts its Step 1 tables to its dup−1 clone
		// labels so the query bandwidth scales with 2^α.
		if b.alpha > 0 && dup > 1 {
			loads := b.sc.loadList(64)
			q := b.pt.NumCoarse()
			for u := 0; u < q; u++ {
				for v := 0; v < q; v++ {
					for _, w := range b.classLists[u*q+v] {
						t := TripleLabel{U: u, V: v, W: w}
						src := b.pt.TripleNode(t)
						words := int64(len(b.pt.Coarse[u])*len(b.pt.Fine[w]) + len(b.pt.Fine[w])*len(b.pt.Coarse[v]))
						for y := 1; y < dup; y++ {
							dst := b.cloneNode(t, y, dup)
							if dst == src {
								continue
							}
							loads = append(loads, congest.Load{Src: src, Dst: dst, Words: words})
						}
					}
				}
			}
			b.sc.loads = loads
			if err := net.ChargeBalanced(fmt.Sprintf("eval/α=%d/step0-duplicate", b.alpha), loads); err != nil {
				return qsearch.Tables{}, err
			}
		}

		// Sample the typical query assignment: each instance queries one
		// uniform element of its search space — the marginal induced by
		// the uniform initial superposition. Build the per-(k,w) lists
		// L^k_w and enforce the slot caps of the C̃m contract. The counts
		// live in the scratch's flat (searchLabel × wBlock) index with a
		// touched list rather than a map: the assignment loop is the
		// innermost accounting loop of every FindEdges call. It walks the
		// coverings, whose pairs are the instances in label order, so each
		// label's group is looked up once.
		qrng := b.rng.Split("query-assignment")
		numFine := b.pt.NumFine()
		listCount := b.sc.zeroedIndex(b.pt.NumSearchLabels() * numFine)
		if cap(b.sc.evalTouch) < b.st.index.Instances() {
			b.sc.evalTouch = make([]int32, 0, b.st.index.Instances())
		}
		touched := b.sc.evalTouch[:0]
		b.sc.evalTouch = touched
		for li, cov := range b.st.coverings {
			list := b.classLists[b.groupOf(li)]
			if len(list) == 0 {
				continue
			}
			for range cov.Pairs {
				w := list[qrng.IntN(len(list))]
				k := li*numFine + w
				if listCount[k] == 0 {
					touched = append(touched, int32(k))
				}
				listCount[k]++
				if int(listCount[k]) > slotCap {
					label := b.pt.SearchFromIndex(li)
					return qsearch.Tables{}, &SlotOverflowError{Label: label, WBlock: w, Count: int(listCount[k]), Cap: slotCap, Alpha: b.alpha}
				}
			}
		}

		// Figure 4/5 Steps 1–2: send each list (3 words per entry: the two
		// endpoints and the pair weight) to the triple node (or its clone
		// label), and receive one word per entry back. Sublists are spread
		// round-robin across the dup clone labels.
		loads := b.sc.loadList(2 * dup * len(touched))
		for _, k := range touched {
			count := int(listCount[k])
			label := b.pt.SearchFromIndex(int(k) / numFine)
			src := b.pt.SearchNode(label)
			t := TripleLabel{U: label.U, V: label.V, W: int(k) % numFine}
			per := (count + dup - 1) / dup
			remaining := count
			for y := 0; y < dup && remaining > 0; y++ {
				chunk := per
				if chunk > remaining {
					chunk = remaining
				}
				remaining -= chunk
				dst := b.cloneNode(t, y, dup)
				if dst == src {
					continue
				}
				loads = append(loads,
					congest.Load{Src: src, Dst: dst, Words: int64(3 * chunk)},
					congest.Load{Src: dst, Dst: src, Words: int64(chunk)},
				)
			}
		}
		b.sc.loads = loads
		if err := net.ChargeBalanced(fmt.Sprintf("eval/α=%d/query-response", b.alpha), loads); err != nil {
			return qsearch.Tables{}, err
		}

		// Assemble the truth tables from the queried triple nodes' data,
		// one per unique (unordered group, pair) row of Step 2, which also
		// indexed the instances by row. Row computation (the triple nodes'
		// local min-plus work) is independent across rows, so the rows are
		// computed by the worker pool and merged by index — identical
		// output for any worker count.
		// The previous evaluation's rows are dead once this one runs (the
		// multi-search consuming them has returned), so the row arenas are
		// reused across classes and promise calls.
		pairRows := b.st.rows
		rows := par.Grow(b.sc.rows, len(pairRows))
		b.sc.rows = rows
		rowArena := par.Grow(b.sc.rowArena, len(pairRows)*b.spaceSize)
		b.sc.rowArena = rowArena
		par.For(par.Workers(b.workers), len(pairRows), func(j int) {
			row := rowArena[j*b.spaceSize : (j+1)*b.spaceSize]
			pr := &pairRows[j]
			b.truthRowInto(row, pr.group, pr.pair, pr.weight)
			rows[j] = row
		})
		return qsearch.Tables{Rows: rows, Index: b.st.index}, nil
	}
}

// cloneNode maps the Figure 5 label (u,v,w,y) to a physical node. For
// y = 0 (and for dup = 1, i.e. Figure 4) it is the triple node itself.
func (b *evalBuilder) cloneNode(t TripleLabel, y, dup int) congest.NodeID {
	if y == 0 || dup <= 1 {
		return b.pt.TripleNode(t)
	}
	return congest.NodeID((b.pt.TripleIndex(t)*dup + y) % b.pt.N())
}
