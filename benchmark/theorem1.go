package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"qclique/benchmark/report"
)

//go:embed golden.json
var goldenJSON []byte

// golden pins the theorem1 rounds of each solve, by graph index, at one
// input seed.
type golden struct {
	InputSeed uint64           `json:"input_seed"`
	Rounds    map[string]int64 `json:"rounds"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// solvesPerSecond sets the work of a run: it solves round(solvesPerSecond ×
// seconds) graphs, at least one, however fast the solves are, so the parent
// and a change do identical work.
const solvesPerSecond = 0.6

// runTheorem1 runs the theorem1 child: a closed loop with one caller
// solving one n=64 graph after another, protocol seeds 0–7 in turn.
func runTheorem1(cfg *config) (*outcome, error) {
	gold, err := loadGolden()
	if err != nil {
		return nil, err
	}
	bin, err := build(cfg, "theorem1")
	if err != nil {
		return nil, err
	}
	seed := strconv.FormatUint(cfg.seed, 10)
	solves := max(1, int(math.Round(solvesPerSecond*cfg.length.Seconds())))
	var setups []float64
	for i := 0; i < setupReps; i++ {
		cmd, _, err := startChild(bin, "-seed", seed, "-solves", strconv.Itoa(solves), "-setup-only")
		if err != nil {
			return nil, err
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("theorem1 set-up: %w", err)
		}
		setups = append(setups, cpuSeconds(cmd.ProcessState))
	}
	args := []string{"-seed", seed, "-solves", strconv.Itoa(solves)}
	if cfg.trace {
		// Every graph is solved twice when traced: half as many graphs
		// keep the run as long.
		args = []string{"-seed", seed, "-solves", strconv.Itoa(max(1, solves/2)), "-profile-dir", cfg.outDir}
	}
	cmd, sc, err := startChild(bin, args...)
	if err != nil {
		return nil, err
	}
	var last string
	for sc.Scan() {
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("theorem1: %w", err)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("theorem1: %w", err)
	}
	var rep report.Theorem1
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("theorem1 report: %w", err)
	}

	oc := newOutcome()
	var walls, cpus, squares, rounds, words, findEdges []float64
	var stageWall, opWall float64
	firstRounds := map[int]int64{}
	for _, s := range rep.Solves {
		err := checkSolve(s, cfg.seed, gold)
		if r, ok := firstRounds[s.Instance]; ok && err == nil && r != s.Rounds {
			err = fmt.Errorf("graph %d: solved twice, charged %d and %d rounds", s.Instance, r, s.Rounds)
		}
		firstRounds[s.Instance] = s.Rounds
		oc.check(err)
		start := time.Unix(0, s.StartUnixNs)
		op := cfg.spans.add(0, "theorem1.solve", start, start.Add(time.Duration(s.WallNs)),
			map[string]any{"graph": s.Instance, "protocol_seed": s.ProtocolSeed, "rounds": s.Rounds, "cpu_ns": s.CPUNs, "profiled": s.Profiled})
		// Stage spans are laid end to end from the solve's start: the
		// stages run back to back, and the gap left is untracked time.
		at := start
		for _, st := range s.Stages {
			end := at.Add(time.Duration(st.WallNs))
			cfg.spans.add(op, "engine."+st.Name, at, end, map[string]any{"rounds": st.Rounds, "words": st.Words})
			at = end
		}
		oc.diag[fmt.Sprintf("rounds.graph_%d", s.Instance)] = float64(s.Rounds)
		if s.Profiled {
			continue
		}
		walls = append(walls, float64(s.WallNs)/1e6)
		cpus = append(cpus, float64(s.CPUNs)/1e6)
		rounds = append(rounds, float64(s.Rounds))
		words = append(words, float64(s.Words))
		findEdges = append(findEdges, float64(s.FindEdges))
		opWall += float64(s.WallNs)
		for _, st := range s.Stages {
			stageWall += float64(st.WallNs)
		}
		squares = append(squares, squareMs(s.Stages)...)
	}
	setLatency(oc, walls)
	oc.metrics["setup_s"] = median(setups)
	oc.metrics["op_cpu_ms"] = mean(cpus)
	oc.metrics["peak_rss_mb"] = float64(rep.VmHWMKB) / 1024
	oc.metrics["proc.cpu_util"] = float64(rep.CPUNs) / float64(rep.WallNs) / float64(runtime.NumCPU())
	oc.metrics["engine.square_ms"] = median(squares)
	oc.metrics["engine.stage_cover_frac"] = stageWall / opWall
	oc.metrics["congest.rounds_per_solve"] = mean(rounds)
	oc.metrics["congest.words_per_solve"] = mean(words)
	oc.metrics["distprod.findedges_per_solve"] = mean(findEdges)
	// In a closed loop each solve is due when the one before it ends.
	var late []time.Duration
	due := time.Unix(0, rep.StartUnixNs)
	for _, s := range rep.Solves {
		late = append(late, time.Unix(0, s.StartUnixNs).Sub(due))
		due = time.Unix(0, s.StartUnixNs+s.WallNs)
	}
	setLoadgenLate(oc, late)
	notExercised(oc, "serve.hit_ratio", "serve.queued_frac", "serve.shed")
	oc.diag["gomaxprocs.worker"] = float64(rep.GOMAXPROCS)
	if cfg.trace {
		oc.metrics["trace.overhead_frac"] = pairedOverhead(rep.Solves)
		var profiles []*cpuProfile
		for _, path := range rep.Profiles {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			p, err := decodeProfile(data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			profiles = append(profiles, p)
		}
		setShares(oc, attribute(profiles))
	}
	return oc, nil
}

// checkSolve fails a solve that errored, returned wrong distances, or, at
// the pinned input seed, charged other rounds than golden.json. Graphs
// golden.json does not list, as a longer run solves, are not pinned.
func checkSolve(s report.Solve, seed uint64, gold golden) error {
	if s.Err != "" {
		return fmt.Errorf("graph %d: %s", s.Instance, s.Err)
	}
	if seed != gold.InputSeed {
		return nil
	}
	if want, ok := gold.Rounds[strconv.Itoa(s.Instance)]; ok && s.Rounds != want {
		return fmt.Errorf("graph %d: %d rounds, golden %d", s.Instance, s.Rounds, want)
	}
	return nil
}

// pairedOverhead compares the CPU time of each graph's profiled solve with
// its unprofiled one and returns the median ratio minus 1.
func pairedOverhead(solves []report.Solve) float64 {
	on, off := map[int]float64{}, map[int]float64{}
	for _, s := range solves {
		if s.Profiled {
			on[s.Instance] = float64(s.CPUNs)
		} else {
			off[s.Instance] = float64(s.CPUNs)
		}
	}
	var ratios []float64
	for i, c := range on {
		if c0, ok := off[i]; ok {
			ratios = append(ratios, c/c0)
		}
	}
	return median(ratios) - 1
}

// startChild starts a benchmark child process and waits for its ready line.
func startChild(bin string, args ...string) (*exec.Cmd, *bufio.Scanner, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = diesWithParent()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	if !sc.Scan() || sc.Text() != report.Ready {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, nil, fmt.Errorf("%s did not get ready: %v", filepath.Base(bin), sc.Err())
	}
	return cmd, sc, nil
}

// cpuSeconds is the user plus system CPU time of an exited process.
func cpuSeconds(ps *os.ProcessState) float64 {
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}
