package serve

// The solve cache: an LRU over fully-solved APSP results keyed by
// (graph content hash, strategy, preset, seed) — everything that affects
// the simulator's output; worker counts are excluded because results are
// worker-invariant by construction. A singleflight layer in front of the
// LRU collapses concurrent identical solves onto one simulator run.

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"qclique/internal/congest"
	"qclique/internal/core"
	"qclique/internal/graph"
)

// cacheKey is the full identity of a solve. epsilon is part of it: the
// approximate strategies produce different distances (and rounds) per
// epsilon, so two solves differing only in epsilon must never share an
// entry. faults is part of it for the same reason — an armed plan changes
// the round trajectory (and telemetry) of the cached result; FaultPlan is
// all scalars, so the key stays comparable.
type cacheKey struct {
	hash     string
	strategy string
	preset   Preset
	seed     uint64
	epsilon  float64
	faults   congest.FaultPlan
}

// entry is one cached solve: the private graph clone the simulator ran on,
// its result, and the shared path oracle built over both. All fields are
// read-only after construction.
type entry struct {
	g      *graph.Digraph
	res    *core.Result
	oracle *core.PathOracle
}

// lruMap is a mutex-guarded LRU map; it backs both the solve cache
// (cacheKey → *entry) and the graph store (id → *storedGraph). It holds at
// most max slots and, when built with a size function, at most maxBytes of
// values by that measure. The byte bound never evicts the slot just added,
// so a single value larger than the budget stays until the next add.
type lruMap[K comparable, V any] struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	size     func(V) int64 // nil: the map is bounded by count only
	bytes    int64         // summed size of the held values
	order    *list.List    // front = most recently used; values are *lruSlot[K, V]
	items    map[K]*list.Element
}

type lruSlot[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
}

func newLRUMap[K comparable, V any](max int, maxBytes int64, size func(V) int64) *lruMap[K, V] {
	return &lruMap[K, V]{max: max, maxBytes: maxBytes, size: size, order: list.New(), items: make(map[K]*list.Element)}
}

// get returns the value for key, marking it most recently used.
func (c *lruMap[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruSlot[K, V]).val, true
}

// add inserts (or refreshes) key, evicting least-recently-used slots
// beyond the capacity and the byte budget.
func (c *lruMap[K, V]) add(key K, val V) {
	var n int64
	if c.size != nil {
		n = c.size(val)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		slot := el.Value.(*lruSlot[K, V])
		c.bytes += n - slot.bytes
		slot.val, slot.bytes = val, n
	} else {
		c.items[key] = c.order.PushFront(&lruSlot[K, V]{key: key, val: val, bytes: n})
		c.bytes += n
	}
	for c.order.Len() > c.max || (c.bytes > c.maxBytes && c.order.Len() > 1) {
		back := c.order.Back()
		slot := back.Value.(*lruSlot[K, V])
		delete(c.items, slot.key)
		c.order.Remove(back)
		c.bytes -= slot.bytes
	}
}

func (c *lruMap[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func newLRUCache(max int) *lruMap[cacheKey, *entry] {
	if max <= 0 {
		max = defaultCacheSize
	}
	return newLRUMap[cacheKey, *entry](max, 0, nil)
}

// flightGroup deduplicates concurrent calls with the same key: the first
// caller runs fn, the rest block and share its outcome. Outcomes are not
// retained once the call completes — persistence is the LRU's job.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall
}

type flightCall struct {
	done chan struct{} // closed after val/err are set and the key deleted
	val  *entry
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[cacheKey]*flightCall)}
}

// do returns fn's outcome for key, with shared=true when this caller
// piggybacked on another caller's in-flight run. A follower waits under
// its own context: if ctx is done before the leader finishes, do returns
// ctx's error (shared=true) instead of blocking past the caller's
// deadline. The flight entry is removed from the map strictly before the
// done channel closes, so a woken follower that retries is guaranteed to
// either become the new leader or join a genuinely newer flight. A panic
// in fn is converted to an error (shared by all waiters) rather than
// wedging the key — the daemon's HTTP layer recovers handler panics, so a
// poisoned flight entry would otherwise block every future solve of that
// key.
func (f *flightGroup) do(ctx context.Context, key cacheKey, fn func() (*entry, error)) (val *entry, shared bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				c.val, c.err = nil, fmt.Errorf("serve: solve panicked: %v", r)
			}
			f.mu.Lock()
			delete(f.calls, key)
			f.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()
	return c.val, false, c.err
}
