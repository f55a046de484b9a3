package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"qclique/benchmark/inputs"
)

// A seeded schedule is the same schedule every time, another seed gives
// another one, and every seed gives rate·length arrivals within the run.
func TestScheduleIsDeterministic(t *testing.T) {
	const rate, length = 1000.0, 5 * time.Second
	a := arrivals(inputs.RNG(7), rate, length)
	b := arrivals(inputs.RNG(7), rate, length)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different schedules")
	}
	c := arrivals(inputs.RNG(8), rate, length)
	if slices.Equal(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != 5000 || len(c) != 5000 {
		t.Fatalf("%d and %d arrivals, want 5000", len(a), len(c))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= length {
		t.Fatal("offsets not sorted within the run")
	}
	// Uniform offsets: the first half of the run holds about half the
	// arrivals (5 standard deviations is about 180).
	if n, _ := slices.BinarySearch(a, length/2); n < 2320 || n > 2680 {
		t.Fatalf("%d of 5000 arrivals in the first half", n)
	}
}

// Every seed asks for each kind of read in its exact share, in an order
// the seed fixes.
func TestReadKindsAreExactShares(t *testing.T) {
	const n = 20000
	a, b := readKinds(inputs.RNG(1), n), readKinds(inputs.RNG(1), n)
	c := readKinds(inputs.RNG(2), n)
	if !slices.Equal(a, b) || slices.Equal(a, c) {
		t.Fatal("the order is not fixed by the seed")
	}
	for _, kinds := range [][]string{a, c} {
		count := map[string]int{}
		for _, k := range kinds {
			count[k]++
		}
		for _, m := range readMix {
			if want := int(math.Round(m.weight * n)); count[m.kind] != want {
				t.Errorf("%d %s reads, want %d", count[m.kind], m.kind, want)
			}
		}
	}
}

// dispatch sends in schedule order, reports each due time, and counts
// lateness from the due time: a schedule already behind is late by the
// backlog, one ahead is on time.
func TestDispatchAccountsLateness(t *testing.T) {
	start := time.Now().Add(-50 * time.Millisecond)
	at := []time.Duration{0, 10 * time.Millisecond, 80 * time.Millisecond, 90 * time.Millisecond}
	var order []int
	var dues []time.Time
	late := dispatch(start, at, func(i int, due time.Time) {
		order = append(order, i)
		dues = append(dues, due)
		if i == 2 {
			time.Sleep(20 * time.Millisecond) // a slow send delays the next one
		}
	})
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("send order %v", order)
	}
	for i, d := range dues {
		if !d.Equal(start.Add(at[i])) {
			t.Errorf("job %d due %v, want start+%v", i, d.Sub(start), at[i])
		}
	}
	if late[0] < 50*time.Millisecond || late[1] < 40*time.Millisecond {
		t.Errorf("backlog not counted: late %v", late[:2])
	}
	if late[2] > 5*time.Millisecond {
		t.Errorf("job 2 was due 30ms ahead but %v late", late[2])
	}
	if late[3] < 10*time.Millisecond {
		t.Errorf("job 3 waited on a slow send but is only %v late", late[3])
	}
}
