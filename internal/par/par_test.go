package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		For(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyAndSmall(t *testing.T) {
	ran := false
	For(4, 0, func(int) { ran = true })
	if ran {
		t.Error("For with n=0 ran the body")
	}
	For(4, 1, func(i int) {
		if i != 0 {
			t.Errorf("unexpected index %d", i)
		}
		ran = true
	})
	if !ran {
		t.Error("For with n=1 skipped the body")
	}
}

func TestForDeterministicMerge(t *testing.T) {
	// Results written to per-index slots must match the serial order
	// regardless of worker count.
	const n = 512
	want := make([]int, n)
	For(1, n, func(i int) { want[i] = i * i })
	got := make([]int, n)
	For(8, n, func(i int) { got[i] = i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestForEachWorkerBounds(t *testing.T) {
	const n = 300
	const workers = 5
	var seen [workers]int32
	counts := make([]int32, n)
	ForEachWorker(workers, n, func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker %d out of range", w)
		}
		atomic.AddInt32(&seen[w], 1)
		atomic.AddInt32(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("defaulted worker count must be at least 1")
	}
}

func TestPooledMatchesSerialEveryWorkerCount(t *testing.T) {
	// The scheduler contract: for any worker count the merged per-slot
	// results are identical to a serial run. Exercised across sizes that
	// hit the chunk-boundary edge cases (n < workers, n not a multiple of
	// the chunk size, single chunk per executor).
	for _, n := range []int{1, 2, 3, 5, 16, 17, 100, 1023} {
		want := make([]int64, n)
		ForEachWorker(1, n, func(w, i int) { want[i] = int64(i)*7 + 1 })
		for workers := 2; workers <= 24; workers++ {
			got := make([]int64, n)
			ForEachWorker(workers, n, func(w, i int) { got[i] = int64(i)*7 + 1 })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d slot %d: got %d want %d", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPoolReuseAcrossDispatches(t *testing.T) {
	// Repeated dispatches must keep covering every index exactly once —
	// this exercises free-list recycling of parked workers — and must reuse
	// those workers instead of growing the pool: without recycling, every
	// dispatch here would add five goroutines. A worker caught between
	// wg.Done and re-parking can make a dispatch spawn one more, so only
	// growth of one goroutine per dispatch or more is a failure.
	const n = 257
	const rounds = 50
	ForEachWorker(6, n, func(int, int) {})
	before := runtime.NumGoroutine()
	counts := make([]int32, n)
	for round := 0; round < rounds; round++ {
		for i := range counts {
			counts[i] = 0
		}
		ForEachWorker(6, n, func(w, i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("round %d: index %d executed %d times", round, i, c)
			}
		}
	}
	if grown := runtime.NumGoroutine() - before; grown >= rounds {
		t.Fatalf("pool grew by %d goroutines over %d dispatches: parked workers are not reused", grown, rounds)
	}
}

func TestWorkerIDsDenseAndScratchSafe(t *testing.T) {
	// Executor ids must be dense in [0, W) so per-worker scratch arrays can
	// be indexed directly; each id must never run concurrently with itself
	// (exclusive scratch ownership). The unsynchronized per-worker counters
	// below turn any violation into a -race report.
	const n = 4096
	const workers = 8
	perWorker := make([]int, workers)
	ForEachWorker(workers, n, func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of [0,%d)", w, workers)
		}
		perWorker[w]++
	})
	total := 0
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Fatalf("executed %d indices, want %d", total, n)
	}
}

func TestNestedDispatch(t *testing.T) {
	// An fn body may itself fan out (e.g. a per-node phase that calls a
	// parallel kernel). The pool must not deadlock or double-run indices.
	const outer, inner = 4, 64
	var counts [outer][inner]int32
	ForEachWorker(3, outer, func(_, o int) {
		ForEachWorker(3, inner, func(_, i int) {
			atomic.AddInt32(&counts[o][i], 1)
		})
	})
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			if counts[o][i] != 1 {
				t.Fatalf("outer %d inner %d executed %d times", o, i, counts[o][i])
			}
		}
	}
}
