package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metric
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareRecords compares set A with set B (args "A… -- B…") on every
// workload × end-to-end metric and prints each set's median and quartiles
// with a verdict against the metric's bound: within, worse or unresolved.
// It fails when any pair is worse, and refuses records measured at another
// nproc or GOMAXPROCS than the rest.
func compareRecords(w io.Writer, args []string, specPath string) error {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		return errors.New("usage: -compare A.json… -- B.json…")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(args[:sep])
	if err != nil {
		return err
	}
	b, err := loadRecords(args[sep+1:])
	if err != nil {
		return err
	}
	shape := a[0].Host
	for _, r := range append(slices.Clone(a), b...) {
		if r.Host.NProc != shape.NProc || r.Host.GOMAXPROCS != shape.GOMAXPROCS {
			return fmt.Errorf("refusing to compare: records at nproc=%d gomaxprocs=%d and nproc=%d gomaxprocs=%d",
				shape.NProc, shape.GOMAXPROCS, r.Host.NProc, r.Host.GOMAXPROCS)
		}
		if r.Trace {
			return fmt.Errorf("refusing to compare: %s seed %d is a traced run", r.Workload, r.Seed)
		}
	}
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for name := range wa {
		if _, ok := wb[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("the two sets share no workload")
	}
	fmt.Fprintf(w, "nproc=%d gomaxprocs=%d\n", shape.NProc, shape.GOMAXPROCS)
	fmt.Fprintf(w, "%-12s %-12s %5s  %-32s %-32s %s\n", "workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "verdict")
	worse := 0
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			va, vb := values(wa[name], m.Name), values(wb[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s: %s missing from a record", name, m.Name)
			}
			v := verdict(va, vb, m.Bound, m.Better == "lower")
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-12s %-12s %5.2f  %-32s %-32s %s\n", name, m.Name, m.Bound, summary(va), summary(vb), v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs worse than their bound", worse)
	}
	return nil
}

func loadRecords(paths []string) ([]record, error) {
	var rs []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

func values(rs []record, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

func summary(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(vs), q1, q3, len(vs))
}

// verdict judges set b against set a. b is worse when its median is worse
// than a's by more than bound. When either set's spread (quartile distance
// over median) exceeds the bound, the medians cannot settle it, and only
// every b run beating, or losing to, every a run does.
func verdict(a, b []float64, bound float64, lowerBetter bool) string {
	ma, mb := median(a), median(b)
	loss := (mb - ma) / ma
	better := func(x, y float64) bool { return x < y }
	if !lowerBetter {
		loss = -loss
		better = func(x, y float64) bool { return x > y }
	}
	all := func(pred func(x, y float64) bool) bool {
		for _, x := range b {
			for _, y := range a {
				if !pred(x, y) {
					return false
				}
			}
		}
		return true
	}
	noisy := spread(a) > bound || spread(b) > bound
	switch {
	case loss > bound && (!noisy || all(func(x, y float64) bool { return better(y, x) })):
		return "worse"
	case loss <= bound && (!noisy || all(better)):
		return "within"
	default:
		return "unresolved"
	}
}
