// Package inputs generates the benchmark's inputs from its seed and holds
// the reference answers they are checked against. It depends on the
// standard library only, so the inputs stay fixed whatever the program
// under test does to its own generators.
package inputs

import (
	"math/rand/v2"
	"strconv"
)

// Unreachable marks a pair with no path in a reference distance matrix.
const Unreachable = int64(1) << 62

// splitmix64 is the SplitMix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RNG returns the deterministic stream rooted at seed. It is the stream the
// repository's E1 benchmark draws its graphs from (PCG seeded through
// SplitMix64), which is what lets the theorem1 workload reproduce
// BenchmarkE1APSPQuantum/n=64 input for input.
func RNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitmix64(seed), splitmix64(seed^0xa5a5a5a5a5a5a5a5)))
}

// Derive hashes a label and an index into seed, giving independent streams
// for independent inputs of one run.
func Derive(seed uint64, label string, i int) uint64 {
	h := uint64(14695981039346656037)
	for j := 0; j < len(label); j++ {
		h ^= uint64(label[j])
		h *= 1099511628211
	}
	return splitmix64(seed^splitmix64(h)) + splitmix64(uint64(i)+0x1234_5678_9abc_def0)
}

// Arc is one weighted arc u→v.
type Arc struct {
	U, V int
	W    int64
}

// Graph is a weighted digraph on vertices 0..N-1, arcs in row-major order.
type Graph struct {
	N    int
	Arcs []Arc
}

// E1Digraph draws the E1 workload graph: each ordered pair is an arc with
// probability 0.4, and weights in [-8, 8] come from vertex potentials, so
// there are negative arcs but no negative cycles. For a given rng it is arc
// for arc the graph BenchmarkE1APSPQuantum solves.
func E1Digraph(n int, rng *rand.Rand) Graph {
	const (
		arcProb        = 0.4
		minW, maxW     = -8, 8
		half           = (maxW - minW) / 2
		potentialRange = half + 1
	)
	phi := make([]int64, n)
	for i := range phi {
		phi[i] = rng.Int64N(potentialRange)
	}
	g := Graph{N: n}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || !(rng.Float64() < arcProb) {
				continue
			}
			shift := phi[u] - phi[v]
			lo := max(minW-shift, 0)
			hi := maxW - shift
			if hi < lo {
				continue
			}
			c := lo + rng.Int64N(hi-lo+1)
			g.Arcs = append(g.Arcs, Arc{U: u, V: v, W: c + shift})
		}
	}
	return g
}

// Theorem1N is the vertex count of the theorem1 workload's graphs.
const Theorem1N = 64

// Theorem1Graph is the i-th graph the theorem1 workload solves at seed. The
// first is drawn as the repository's E1 benchmark draws its n=64 graph, so
// at seed 0 it is the BenchmarkE1APSPQuantum/n=64 instance.
func Theorem1Graph(seed uint64, i int) Graph {
	if i == 0 {
		return E1Digraph(Theorem1N, RNG(Theorem1N+seed))
	}
	return E1Digraph(Theorem1N, RNG(Derive(seed, "theorem1/graph", i)))
}

// Weights returns the dense n×n weight matrix, Unreachable where there is
// no arc and 0 on the diagonal.
func (g Graph) Weights() []int64 {
	w := make([]int64, g.N*g.N)
	for i := range w {
		w[i] = Unreachable
	}
	for i := 0; i < g.N; i++ {
		w[i*g.N+i] = 0
	}
	for _, a := range g.Arcs {
		w[a.U*g.N+a.V] = a.W
	}
	return w
}

// JSON encodes g as the body of PUT /v1/graphs.
func (g Graph) JSON() []byte {
	b := make([]byte, 0, 32+24*len(g.Arcs))
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(g.N), 10)
	b = append(b, `,"arcs":[`...)
	for i, a := range g.Arcs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(a.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(a.V), 10)
		b = append(b, `,"w":`...)
		b = strconv.AppendInt(b, a.W, 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// FloydWarshall returns the all-pairs distances of g, row-major, with
// Unreachable for pairs without a path. The generated graphs have no
// negative cycles, so no cycle check is needed.
func FloydWarshall(g Graph) []int64 {
	n := g.N
	d := g.Weights()
	for k := 0; k < n; k++ {
		rk := d[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if dik == Unreachable {
				continue
			}
			ri := d[i*n : (i+1)*n]
			for j, dkj := range rk {
				if dkj != Unreachable && dik+dkj < ri[j] {
					ri[j] = dik + dkj
				}
			}
		}
	}
	return d
}

// BellmanFord returns the distances from src, with Unreachable for
// vertices without a path from it.
func BellmanFord(g Graph, src int) []int64 {
	d := make([]int64, g.N)
	for i := range d {
		d[i] = Unreachable
	}
	d[src] = 0
	for iter := 0; iter < g.N; iter++ {
		changed := false
		for _, a := range g.Arcs {
			if d[a.U] != Unreachable && d[a.U]+a.W < d[a.V] {
				d[a.V] = d[a.U] + a.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return d
}
