package triangles

import (
	"fmt"

	"qclique/internal/congest"
	"qclique/internal/graph"
)

// This file implements Step 1 of Algorithm ComputePairs (Figure 1): each
// triple-labeled node (u,v,w) loads the weights f(u,w) for all
// {u,w} ∈ P(u,w) and f(w,v) for all {w,v} ∈ P(w,v). The u-side legs are
// routed from their endpoint in u, the v-side legs from their endpoint in
// v; every node sources and sinks O(n^{5/4}) words, so Lemma-1 routing
// delivers the placement in O(n^{1/4}) rounds.

// DataMode selects how much of the protocol's data movement is physically
// materialized.
type DataMode int

const (
	// DataFull routes placement payloads through the simulator
	// (congest.ExchangeBalanced) and stores per-triple weight tables;
	// truth queries are answered from the stored copies. It serves only as
	// the oracle of DataDirect: the tests that compare the two modes and
	// the BenchmarkAblationDataMode ablation select it.
	DataFull DataMode = iota + 1
	// DataDirect charges Step 1 from its load list alone (one load per
	// payload message, same order, same words) and answers truth queries
	// from the leg graph's rows: identical rounds, fault draws and answers
	// without building a payload. The zero Options.Data selects it, so
	// every solve through qclique, core, distprod and serve runs it, the
	// Theorem 1 pipeline included.
	DataDirect
)

// tripleData is the weight table held by one triple-labeled node after
// Step 1.
type tripleData struct {
	// Both tables are laid out with the fine index contiguous (legsWV is
	// stored b-major, the transpose of its wire order), so the min-leg scan
	// over c reads both legs sequentially.
	legsUW []int64 // row-major |Coarse[U]| × |Fine[W]|: f(a,c)
	legsWV []int64 // row-major |Coarse[V]| × |Fine[W]|: f(c,b)
}

// placement is the completed Step 1 state.
type placement struct {
	pt   *Partitions
	mode DataMode
	legs *graph.Undirected
	data []tripleData // indexed by TripleIndex; nil unless DataFull
}

const (
	sideUW congest.Word = 1
	sideWV congest.Word = 2
)

// runPlacement charges (DataDirect) or executes (DataFull) Step 1 on the
// network. Every solve takes the charge-only branch: one load per payload
// message, from a list built once per n and cached on the scratch. The
// DataFull oracle also builds each payload, exchanges it and stores the
// per-triple weight tables; its tables, message headers and payload words
// come from reusable storage (the scratch and the network's payload
// arena).
func runPlacement(net *congest.Network, pt *Partitions, legs *graph.Undirected, mode DataMode, sc *Scratch) (*placement, error) {
	pl := &placement{pt: pt, mode: mode, legs: legs}
	q := pt.NumCoarse()
	s := pt.NumFine()

	if mode != DataFull {
		// Charge-only path, the one every solve runs: the per-message word
		// counts depend only on the partition shapes (3 header words plus
		// one weight per fine-block vertex), so the link loads are charged
		// without materializing any payload slices. This path runs once per
		// promise call on the full-pipeline hot loop — and since the loads
		// are shape-only, the list is built once per n and cached on the
		// scratch; only the ChargeBalanced accounting runs per call.
		if sc.plLoadsN != pt.N() {
			loads := sc.plLoads[:0]
			for u := 0; u < q; u++ {
				for v := 0; v < q; v++ {
					for w := 0; w < s; w++ {
						t := TripleLabel{U: u, V: v, W: w}
						dst := pt.TripleNode(t)
						words := int64(3 + len(pt.Fine[w]))
						for _, a := range pt.Coarse[u] {
							if congest.NodeID(a) != dst {
								loads = append(loads, congest.Load{Src: congest.NodeID(a), Dst: dst, Words: words})
							}
						}
						for _, b := range pt.Coarse[v] {
							if congest.NodeID(b) != dst {
								loads = append(loads, congest.Load{Src: congest.NodeID(b), Dst: dst, Words: words})
							}
						}
					}
				}
			}
			sc.plLoads = loads
			sc.plLoadsN = pt.N()
		}
		if err := net.ChargeBalanced("computepairs/step1-placement", sc.plLoads); err != nil {
			return nil, fmt.Errorf("placement: %w", err)
		}
		return pl, nil
	}

	// Carve every triple's weight tables out of one NoEdge-filled
	// arena, both retained on the scratch across promise calls.
	if cap(sc.plData) < pt.NumTriples() {
		sc.plData = make([]tripleData, pt.NumTriples())
	}
	pl.data = sc.plData[:pt.NumTriples()]
	totalCells := 0
	for ti := range pl.data {
		t := pt.TripleFromIndex(ti)
		totalCells += len(pt.Coarse[t.U])*len(pt.Fine[t.W]) + len(pt.Fine[t.W])*len(pt.Coarse[t.V])
	}
	if cap(sc.plCells) < totalCells {
		sc.plCells = make([]int64, totalCells)
	}
	cells := sc.plCells[:totalCells]
	for i := range cells {
		cells[i] = graph.NoEdge
	}
	for ti := range pl.data {
		t := pt.TripleFromIndex(ti)
		uw := len(pt.Coarse[t.U]) * len(pt.Fine[t.W])
		wv := len(pt.Fine[t.W]) * len(pt.Coarse[t.V])
		pl.data[ti] = tripleData{
			legsUW: cells[:uw:uw],
			legsWV: cells[uw : uw+wv : uw+wv],
		}
		cells = cells[uw+wv:]
	}

	// Pre-size one word arena for every payload of the phase: the message
	// count and sizes depend only on the partition shapes, so a single
	// acquisition covers every slice. The words come from the network's
	// epoch-stamped payload arena (recycled with the inboxes); the message
	// headers are scratch-retained.
	totalMsgs, totalWords := 0, 0
	for u := 0; u < q; u++ {
		for v := 0; v < q; v++ {
			for w := 0; w < s; w++ {
				c := len(pt.Coarse[u]) + len(pt.Coarse[v])
				totalMsgs += c
				totalWords += c * (3 + len(pt.Fine[w]))
			}
		}
	}
	arena := net.AcquirePayload(totalWords)
	if cap(sc.plMsgs) < totalMsgs {
		sc.plMsgs = make([]congest.Message, 0, totalMsgs)
	}
	msgs := sc.plMsgs[:0]
	emit := func(src, dst congest.NodeID, data []congest.Word) {
		if src == dst {
			// Local hand-off: the sender hosts the triple label itself.
			pl.ingest(congest.Message{Src: src, Dst: dst, Data: data})
			return
		}
		msgs = append(msgs, congest.Message{Src: src, Dst: dst, Data: data})
	}

	for u := 0; u < q; u++ {
		for v := 0; v < q; v++ {
			for w := 0; w < s; w++ {
				t := TripleLabel{U: u, V: v, W: w}
				dst := pt.TripleNode(t)
				ti := congest.Word(pt.TripleIndex(t))
				// u-side legs: vertex a sends f(a, c) for all c in w. The
				// weights come straight off the dense row: absent edges and
				// the diagonal both store NoEdge, which is exactly what
				// weightOrNoEdge would return.
				for ai, a := range pt.Coarse[u] {
					start := len(arena)
					arena = append(arena, ti, sideUW, congest.Word(ai))
					rowA := legs.RowView(a)
					for _, c := range pt.Fine[w] {
						arena = append(arena, encodeWeight(rowA[c]))
					}
					emit(congest.NodeID(a), dst, arena[start:len(arena):len(arena)])
				}
				// v-side legs: vertex b sends f(c, b) for all c in w
				// (= rowB[c] by symmetry of the dense storage).
				for bi, b := range pt.Coarse[v] {
					start := len(arena)
					arena = append(arena, ti, sideWV, congest.Word(bi))
					rowB := legs.RowView(b)
					for _, c := range pt.Fine[w] {
						arena = append(arena, encodeWeight(rowB[c]))
					}
					emit(congest.NodeID(b), dst, arena[start:len(arena):len(arena)])
				}
			}
		}
	}

	sc.plMsgs = msgs[:0]
	inboxes, err := net.ExchangeBalanced("computepairs/step1-placement", msgs)
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	for _, inbox := range inboxes {
		for _, m := range inbox {
			if err := pl.ingestChecked(m); err != nil {
				return nil, err
			}
		}
	}
	return pl, nil
}

// encodeWeight and decodeWeight pack extended weights into message words.
func encodeWeight(w int64) congest.Word { return congest.Word(uint64(w)) }
func decodeWeight(w congest.Word) int64 { return int64(uint64(w)) }

func (pl *placement) ingestChecked(m congest.Message) error {
	if len(m.Data) < 3 {
		return fmt.Errorf("placement: short message (%d words)", len(m.Data))
	}
	pl.ingest(m)
	return nil
}

func (pl *placement) ingest(m congest.Message) {
	ti := int(m.Data[0])
	side := m.Data[1]
	idx := int(m.Data[2])
	t := pl.pt.TripleFromIndex(ti)
	td := &pl.data[ti]
	weights := m.Data[3:]
	switch side {
	case sideUW:
		sW := len(pl.pt.Fine[t.W])
		for ci := 0; ci < len(weights) && ci < sW; ci++ {
			td.legsUW[idx*sW+ci] = decodeWeight(weights[ci])
		}
	case sideWV:
		sW := len(pl.pt.Fine[t.W])
		for ci := 0; ci < len(weights) && ci < sW; ci++ {
			td.legsWV[idx*sW+ci] = decodeWeight(weights[ci])
		}
	}
}

// minLegSum answers the triple node's local computation (Figures 4–5): the
// minimum of f(a,c)+f(c,b) over c in fine block w, where a lies in coarse
// block u and b in coarse block v. Returns graph.Inf when no c closes both
// legs.
func (pl *placement) minLegSum(u, v, w int, a, b int) int64 {
	if pl.mode == DataDirect {
		fine := pl.pt.Fine[w]
		if len(fine) == 0 {
			return graph.Inf
		}
		rowA := pl.legs.RowView(a)
		rowB := pl.legs.RowView(b)
		return minLegSumDirect(rowA, rowB, fine[0], len(fine))
	}
	t := TripleLabel{U: u, V: v, W: w}
	td := &pl.data[pl.pt.TripleIndex(t)]
	ai := indexInBlock(pl.pt.Coarse[u], a)
	bi := indexInBlock(pl.pt.Coarse[v], b)
	sW := len(pl.pt.Fine[w])
	// Both tables store the fine index contiguously, and the c==a / c==b
	// exclusions are subsumed by the NoEdge tests (a diagonal leg is loaded
	// as NoEdge), so the scan is two sequential reads like the DataDirect
	// path.
	return minLegScan(td.legsUW[ai*sW:(ai+1)*sW], td.legsWV[bi*sW:(bi+1)*sW])
}

// minLegSumDirect is the DataDirect leg scan over a contiguous fine block
// [c0, c0+sW). It exploits three invariants to turn the per-candidate
// Weight lookups of the old loop into two linear row reads: fine blocks
// from splitEven are contiguous ascending ranges, the graph is symmetric
// (f(c,b) = rowB[c]), and the diagonal is always NoEdge — so the c==a and
// c==b exclusions are subsumed by the NoEdge tests. rowA and rowB alias
// the graph (RowView); callers on the truth-table hot path hoist them once
// per pair.
func minLegSumDirect(rowA, rowB []int64, c0, sW int) int64 {
	return minLegScan(rowA[c0:c0+sW], rowB[c0:c0+sW])
}

// legSumBelow reports whether some c has legsA[c]+legsB[c] < bound — the
// threshold form of minLegScan, exiting on the first witnessing c. Every
// protocol-side query of the leg tables is of this form ("does some c close
// a triangle more negative than the pair weight"), so the full min is only
// computed by the reference tests; min < bound ⟺ ∃c with sum < bound makes
// the early exit exact.
func legSumBelow(legsA, legsB []int64, bound int64) bool {
	for ci, wa := range legsA {
		if wa == graph.NoEdge {
			continue
		}
		wb := legsB[ci]
		if wb == graph.NoEdge {
			continue
		}
		if graph.SaturatingAdd(wa, wb) < bound {
			return true
		}
	}
	return false
}

// legSumBelow is minLegSum(…) < bound with the early-exit scan.
func (pl *placement) legSumBelow(u, v, w int, a, b int, bound int64) bool {
	if pl.mode == DataDirect {
		fine := pl.pt.Fine[w]
		if len(fine) == 0 {
			return false
		}
		c0, sW := fine[0], len(fine)
		return legSumBelow(pl.legs.RowView(a)[c0:c0+sW], pl.legs.RowView(b)[c0:c0+sW], bound)
	}
	t := TripleLabel{U: u, V: v, W: w}
	td := &pl.data[pl.pt.TripleIndex(t)]
	ai := indexInBlock(pl.pt.Coarse[u], a)
	bi := indexInBlock(pl.pt.Coarse[v], b)
	sW := len(pl.pt.Fine[w])
	return legSumBelow(td.legsUW[ai*sW:(ai+1)*sW], td.legsWV[bi*sW:(bi+1)*sW], bound)
}

// minLegScan returns min over c of legsA[c]+legsB[c] skipping NoEdge legs —
// the shared inner loop of both placement modes, fed with contiguous slices
// covering one fine block.
func minLegScan(legsA, legsB []int64) int64 {
	best := graph.Inf
	for ci, wa := range legsA {
		if wa == graph.NoEdge {
			continue
		}
		wb := legsB[ci]
		if wb == graph.NoEdge {
			continue
		}
		if s := graph.SaturatingAdd(wa, wb); s < best {
			best = s
		}
	}
	return best
}

// indexInBlock locates v inside a contiguous block (blocks produced by
// splitEven are sorted ranges, so the offset is v - block[0]).
func indexInBlock(block []int, v int) int {
	return v - block[0]
}
