// Package par provides the bounded worker pool used to parallelize the
// simulator's per-node local phases (oracle evaluation, Grover state-vector
// updates, local min-plus work). A CONGEST-CLIQUE round interleaves
// communication (charged to the network) with node-local computation that
// is embarrassingly parallel across nodes; this package exploits that on
// the host without perturbing determinism: every index is processed exactly
// once, callers write results into per-index slots, and all protocol
// randomness is drawn from pre-derived per-index xrand streams, so the
// merged outcome is independent of scheduling.
//
// Execution uses a persistent, lazily-started pool: worker goroutines are
// spawned on first parallel dispatch, park on their own channel between
// jobs, and are reused through a free list, so steady-state dispatch costs
// one channel send per helper instead of a goroutine spawn. Work is claimed
// as contiguous index chunks via a single atomic per chunk (not per index),
// which keeps cache lines local to one executor and gives each executor a
// stable identifier for scratch affinity.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned as-is.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Grow returns a slice of exactly n entries with unspecified contents,
// reusing buf's backing array when it is large enough and allocating
// otherwise. It is the shared grow-or-reuse primitive of the scratch
// workspaces; callers must fully initialize (or mask) the entries they
// read, which is what keeps pooled and fresh runs identical.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// chunksPerWorker oversubscribes the chunk count relative to the executor
// count so uneven per-index costs still balance, while keeping the number
// of atomic claims far below one-per-index.
const chunksPerWorker = 4

// dispatch is one parallel For or ForEachWorker call, shared by its
// executors: the body (For's one-index fn is kept as is, not wrapped), the
// chunk counter and the executors' WaitGroup, in one allocation per call.
type dispatch struct {
	fn        func(i int)
	fnWorker  func(worker, i int)
	next      atomic.Int64
	chunkSize int
	n         int
	wg        sync.WaitGroup
}

// job is one pool executor's share of a dispatch.
type job struct {
	d      *dispatch
	worker int
}

// poolWorker is a parked goroutine with a private job channel. Workers are
// created lazily, never exit, and return themselves to the free list after
// each job.
type poolWorker struct {
	jobs chan job
}

var pool struct {
	mu   sync.Mutex
	free []*poolWorker
}

func getWorker() *poolWorker {
	pool.mu.Lock()
	if k := len(pool.free); k > 0 {
		w := pool.free[k-1]
		pool.free[k-1] = nil
		pool.free = pool.free[:k-1]
		pool.mu.Unlock()
		return w
	}
	pool.mu.Unlock()
	w := &poolWorker{jobs: make(chan job, 1)}
	go w.loop()
	return w
}

func (w *poolWorker) loop() {
	for j := range w.jobs {
		j.d.runChunks(j.worker)
		j.d.wg.Done()
		pool.mu.Lock()
		pool.free = append(pool.free, w)
		pool.mu.Unlock()
	}
}

// runChunks claims contiguous [lo, hi) index ranges until the shared
// counter is exhausted. Indices within a chunk run in order; which executor
// runs which chunk is scheduling-dependent, which is fine because callers
// write results into per-index slots only.
func (d *dispatch) runChunks(worker int) {
	// The executors share d's cache line with the counter they all bump,
	// so everything else is read once.
	fn, fnWorker, size, n := d.fn, d.fnWorker, d.chunkSize, d.n
	for {
		lo := int(d.next.Add(1)-1) * size
		if lo >= n {
			return
		}
		hi := min(lo+size, n)
		if fn != nil {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		} else {
			for i := lo; i < hi; i++ {
				fnWorker(worker, i)
			}
		}
	}
}

// For runs fn(i) for every i in [0, n), using at most workers executors.
// With workers <= 1 (or n <= 1) it runs inline on the calling goroutine —
// the serial fast path costs no synchronization and no allocation, so
// GOMAXPROCS=1 hosts pay nothing for the parallel plumbing. fn must not
// depend on execution order across indices; determinism comes from writing
// results into slot i only.
func For(workers, n int, fn func(i int)) {
	run(workers, n, fn, nil)
}

// ForEachWorker runs fn(worker, i) like For but also identifies the
// executor slot running each index, so callers can reuse per-worker scratch
// buffers (amplitude vectors, row accumulators) without locking. Executor
// identifiers are dense in [0, workers) after resolution; the calling
// goroutine always acts as executor 0 (the inline fast path therefore
// reports worker 0), and the remaining executors are pool goroutines.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	run(workers, n, nil, fn)
}

// run is For (fn set) or ForEachWorker (fnWorker set). A parallel dispatch
// allocates its dispatch record and nothing else.
func run(workers, n int, fn func(i int), fnWorker func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		if fn != nil {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		for i := 0; i < n; i++ {
			fnWorker(0, i)
		}
		return
	}
	d := &dispatch{fn: fn, fnWorker: fnWorker, chunkSize: max(n/(workers*chunksPerWorker), 1), n: n}
	d.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		getWorker().jobs <- job{d: d, worker: w}
	}
	d.runChunks(0)
	d.wg.Wait()
}
