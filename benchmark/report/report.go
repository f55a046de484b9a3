// Package report holds what the benchmark's child processes report back to
// the runner, and the /proc readings both sides take.
package report

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
)

// Stage is one pipeline stage of a solve, as APSPResult.Stages gives it.
type Stage struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wall_ns"`
	Rounds int64  `json:"rounds"`
	Words  int64  `json:"words"`
}

// Squares reports whether the stage squares the distance matrix: a
// square-k stage of the paper's pipeline, or gossip's local squaring.
func (s Stage) Squares() bool {
	return strings.HasPrefix(s.Name, "square-") || s.Name == "local-squaring"
}

// Solve is one timed SolveAPSP call of the theorem1 workload: the solve of
// graph Instance with protocol seed ProtocolSeed.
type Solve struct {
	Instance     int     `json:"instance"`
	ProtocolSeed uint64  `json:"protocol_seed"`
	StartUnixNs  int64   `json:"start_unix_ns"`
	WallNs       int64   `json:"wall_ns"`
	CPUNs        int64   `json:"cpu_ns"` // the process's CPU time during the call
	Rounds       int64   `json:"rounds"`
	Words        int64   `json:"words"`
	FindEdges    int     `json:"find_edges"`
	Stages       []Stage `json:"stages"`
	Profiled     bool    `json:"profiled"`
	// Err is the solve's error, or the first distance that differs from
	// the Floyd–Warshall reference.
	Err string `json:"err,omitempty"`
}

// Theorem1 is the theorem1 child's report, printed as its last line.
type Theorem1 struct {
	Solves []Solve `json:"solves"`
	// StartUnixNs, CPUNs and WallNs cover the timed loop only.
	StartUnixNs int64    `json:"start_unix_ns"`
	CPUNs       int64    `json:"cpu_ns"`
	WallNs      int64    `json:"wall_ns"`
	VmHWMKB     int64    `json:"vmhwm_kb"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Profiles    []string `json:"profiles,omitempty"`
}

// Probe is one layer probe: the median of Calls timed calls.
type Probe struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	Value       float64 `json:"value"`
	Calls       int     `json:"calls"`
	StartUnixNs int64   `json:"start_unix_ns"`
	EndUnixNs   int64   `json:"end_unix_ns"`
	// Err is set when the calls ran but an answer was wrong.
	Err string `json:"err,omitempty"`
}

// Ready is the line a child prints once its set-up is done.
const Ready = "ready"

// VmHWMKB returns the peak resident set size of process pid ("self" for
// the caller) in KiB, from /proc/<pid>/status.
func VmHWMKB(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// CPUNs returns the CPU time, in nanoseconds, that the live threads of
// process pid have run, from /proc/<pid>/task/*/schedstat. Like getrusage,
// it leaves out time the host gave to other guests.
func CPUNs(pid int) (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		ns, _, _ := strings.Cut(string(b), " ")
		v, err := strconv.ParseInt(ns, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += v
	}
	return sum, nil
}
