// Command theorem1 is the theorem1 workload's worker process: it solves n=64
// E1 graphs with the paper's pipeline through the public qclique API, in a
// closed loop with one caller, and reports every solve to the benchmark
// runner as JSON on standard output.
//
//	theorem1 -seed 0 -solves 16 [-setup-only] [-profile-dir DIR]
//
// Solve i is graph i of the seed with protocol seed i mod 8. With
// -profile-dir every graph is solved twice, once CPU-profiled.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"qclique"
	"qclique/benchmark/inputs"
	"qclique/benchmark/report"
)

// protocolSeeds are cycled by the solve loop.
const protocolSeeds = 8

func main() {
	seed := flag.Uint64("seed", 0, "input seed; graph 0 of seed 0 is the E1APSPQuantum/n=64 graph")
	solves := flag.Int("solves", 16, "how many graphs to solve")
	setupOnly := flag.Bool("setup-only", false, "exit once the inputs are ready")
	profileDir := flag.String("profile-dir", "", "solve every graph twice, CPU-profiling one of the two into this directory")
	flag.Parse()
	if err := run(*seed, *solves, *setupOnly, *profileDir); err != nil {
		fmt.Fprintln(os.Stderr, "theorem1:", err)
		os.Exit(1)
	}
}

func run(seed uint64, solves int, setupOnly bool, profileDir string) error {
	graphs := make([]inputs.Graph, solves)
	dgs := make([]*qclique.Digraph, solves)
	for i := range graphs {
		graphs[i] = inputs.Theorem1Graph(seed, i)
		dgs[i] = qclique.NewDigraph(inputs.Theorem1N)
		for _, a := range graphs[i].Arcs {
			if err := dgs[i].SetArc(a.U, a.V, a.W); err != nil {
				return err
			}
		}
	}
	fmt.Println(report.Ready)
	if setupOnly {
		return nil
	}

	// Each graph is solved once, or, when profiling, twice: profiled second
	// for even graphs and first for odd ones, so that neither side of the
	// trace overhead always runs on a warmer process.
	type job struct {
		i        int
		profiled bool
	}
	var jobs []job
	for i := range dgs {
		if profileDir == "" {
			jobs = append(jobs, job{i, false})
			continue
		}
		jobs = append(jobs, job{i, i%2 == 1}, job{i, i%2 == 0})
	}

	var rep report.Theorem1
	var dists [][][]int64
	cpu0 := cpuNs()
	start := time.Now()
	for k, j := range jobs {
		// Every solve starts from a collected heap, so where the
		// collector's cycles fall within a solve, and with them the
		// solve's cost and peak memory, repeats from solve to solve.
		runtime.GC()
		s, dist, prof, err := solve(dgs[j.i], uint64(j.i%protocolSeeds), j.profiled)
		if err != nil {
			return err
		}
		s.Instance = j.i
		if prof != nil {
			path := filepath.Join(profileDir, fmt.Sprintf("cpu-%02d.pprof", k))
			if err := os.WriteFile(path, prof, 0o644); err != nil {
				return err
			}
			rep.Profiles = append(rep.Profiles, path)
		}
		rep.Solves = append(rep.Solves, s)
		dists = append(dists, dist)
	}
	rep.StartUnixNs, rep.WallNs = start.UnixNano(), time.Since(start).Nanoseconds()
	rep.CPUNs = cpuNs() - cpu0
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)

	refs := make(map[int][]int64)
	for k, dist := range dists {
		s := &rep.Solves[k]
		if s.Err != "" {
			continue
		}
		if refs[s.Instance] == nil {
			refs[s.Instance] = inputs.FloydWarshall(graphs[s.Instance])
		}
		s.Err = compare(dist, refs[s.Instance])
	}
	hwm, err := report.VmHWMKB("self")
	if err != nil {
		return err
	}
	rep.VmHWMKB = hwm
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// solve runs one timed SolveAPSP; a solve error is reported in the Solve,
// not returned.
func solve(dg *qclique.Digraph, pseed uint64, profiled bool) (report.Solve, [][]int64, []byte, error) {
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return report.Solve{}, nil, nil, err
		}
	}
	t0, c0 := time.Now(), cpuNs()
	res, err := qclique.SolveAPSP(dg, qclique.WithParams(qclique.ScaledConstants), qclique.WithSeed(pseed))
	wall, cpu := time.Since(t0), cpuNs()-c0
	if profiled {
		pprof.StopCPUProfile()
	}
	s := report.Solve{ProtocolSeed: pseed, StartUnixNs: t0.UnixNano(), WallNs: wall.Nanoseconds(), CPUNs: cpu, Profiled: profiled}
	if err != nil {
		s.Err = err.Error()
		return s, nil, nil, nil
	}
	s.Rounds, s.FindEdges = res.Rounds, res.FindEdgesCalls
	for _, st := range res.Stages {
		s.Words += st.Words
		s.Stages = append(s.Stages, report.Stage{Name: st.Name, WallNs: st.Wall.Nanoseconds(), Rounds: st.Rounds, Words: st.Words})
	}
	if !profiled {
		return s, res.Dist, nil, nil
	}
	return s, res.Dist, prof.Bytes(), nil
}

// compare returns "" when dist equals the reference, else the first
// difference.
func compare(dist [][]int64, ref []int64) string {
	const n = inputs.Theorem1N
	if len(dist) != n {
		return fmt.Sprintf("%d rows, want %d", len(dist), n)
	}
	for i, row := range dist {
		for j, d := range row {
			want := ref[i*n+j]
			if want == inputs.Unreachable {
				want = qclique.Inf
			}
			if d != want {
				return fmt.Sprintf("dist[%d][%d] = %d, want %d", i, j, d, want)
			}
		}
	}
	return ""
}

// cpuNs returns the CPU time the process has used. The kernel leaves out
// time the host gave to other guests, so unlike wall time it does not
// grow when they take the cores.
func cpuNs() int64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}
