package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// BENCHMARK.json declares exactly the metrics a run emits, with their
// units, and exactly the workloads the runner knows.
func TestSpecMatchesEmittedMetrics(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metric
	largest, largestBound := "", 0.0
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.metric)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > largestBound {
			largest, largestBound = m.Name, m.Bound
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\nemitted\n%v", e2e, endToEnd)
	}
	if largest != "setup_s" {
		t.Errorf("setup_s must have the largest bound, %s has", largest)
	}
	if !slices.Equal(sp.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\nemitted\n%v", sp.PerLayer, perLayer)
	}
	var names, known []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		known = append(known, w)
	}
	sort.Strings(names)
	sort.Strings(known)
	if !slices.Equal(names, known) {
		t.Errorf("workloads in BENCHMARK.json %v, runner knows %v", names, known)
	}
	if !slices.Equal(sp.Paths, []string{"benchmark"}) || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", sp.Paths, sp.RunSeconds)
	}
}

// The pinned rounds of protocol seed 0 are BENCH_1.json's E1 n=64 entry,
// read in place.
func TestGoldenSeedZeroIsBench1(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCH_1.json")
	if err != nil {
		t.Skip("no BENCH_1.json:", err)
	}
	var bench struct {
		Benchmarks []struct {
			Name   string `json:"name"`
			Rounds int64  `json:"rounds_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	want := int64(-1)
	for _, e := range bench.Benchmarks {
		if e.Name == "E1APSPQuantum/n=64" {
			want = e.Rounds
		}
	}
	if want < 0 {
		t.Skip("BENCH_1.json has no E1APSPQuantum/n=64")
	}
	if got := gold.Rounds["0"]; gold.InputSeed != 0 || got != want {
		t.Errorf("golden graph 0: %d rounds at input seed %d, BENCH_1.json has %d", got, gold.InputSeed, want)
	}
}

// golden.json pins every graph a run of BENCHMARK.json's length solves.
func TestGoldenCoversARun(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	solves := int(math.Round(solvesPerSecond * float64(sp.RunSeconds)))
	for i := 0; i < solves; i++ {
		if _, ok := gold.Rounds[strconv.Itoa(i)]; !ok {
			t.Errorf("a %ds run solves %d graphs; golden.json does not pin graph %d", sp.RunSeconds, solves, i)
		}
	}
}
