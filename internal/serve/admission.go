package serve

// Admission control: the service-level overload valve. A bounded number of
// solve executions run concurrently; past that, cache-missing requests wait
// in a bounded FIFO queue, and past *that* the service sheds load with a
// typed OverloadError (HTTP 503 "overloaded" + Retry-After) instead of
// letting a burst of uncached exact solves — each worth seconds of CPU and
// hundreds of MB of solve state at n=128 — OOM or thrash the daemon.
// Queued requests are deadline-aware: a request whose remaining timeout_ms
// budget cannot even cover its own likely service time (the mean wall time
// of past executions of the same strategy) is shed immediately rather than
// burning queue residency on an answer that would arrive dead.
//
// Cache hits and singleflight followers bypass admission entirely — they
// execute nothing. The gate sits inside the flight leader, so a burst of
// identical requests costs one queue slot, not one per caller.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

const defaultQueueDepth = 64

// OverloadError reports a request refused (or abandoned) by the admission
// controller: the wait queue is full, the request's deadline cannot outlive
// its likely service time, or the service is draining for shutdown. The
// HTTP layer maps it to 503 with code "overloaded" and a Retry-After; shed
// requests never run the simulator, are never cached, and are counted in
// AdmissionStats.Shed — not in StrategyStats.Cancelled.
type OverloadError struct {
	// Reason is "queue-full", "deadline", or "draining".
	Reason string
	// RetryAfter is the suggested wait before retrying.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %s", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// shedErr builds the OverloadError for one shed request. The suggested wait
// is the request's own service-time estimate — roughly when a saturated
// slot frees — floored at one second so the advertised retry is never a
// busy-loop invitation.
func shedErr(reason string, estimate time.Duration) *OverloadError {
	retry := estimate
	if retry < time.Second {
		retry = time.Second
	}
	return &OverloadError{Reason: reason, RetryAfter: retry}
}

// admitWaiter is one queued acquire. err is set strictly before ready
// closes; a nil err on a closed ready means the waiter was granted a slot.
type admitWaiter struct {
	ready    chan struct{}
	err      error
	deadline time.Time // zero = no deadline
	estimate time.Duration
	enqueued time.Time
}

// admission is the in-flight gate: at most maxInflight concurrently
// executing solves, a FIFO wait queue of at most maxQueue behind them, and
// a drain switch that sheds the queue and refuses new work during shutdown.
// maxInflight <= 0 leaves execution unbounded (the library default, and the
// seed behavior); the gauge and drain switch still work so readiness and
// metrics stay meaningful.
type admission struct {
	mu          sync.Mutex
	maxInflight int
	maxQueue    int
	inflight    int
	draining    bool
	queue       []*admitWaiter

	// Cumulative counters, guarded by mu.
	queued      int64
	queueWaitNs int64
	shed        int64
}

func newAdmission(maxInflight, queueDepth int) *admission {
	if maxInflight <= 0 {
		return &admission{}
	}
	if queueDepth <= 0 {
		queueDepth = defaultQueueDepth
	}
	return &admission{maxInflight: maxInflight, maxQueue: queueDepth}
}

// acquire admits one solve execution, blocking in FIFO order while the
// in-flight cap is saturated. estimate is the request's likely service time
// (zero when unknown); deadline-aware shedding compares it against ctx's
// remaining budget, so a request that could not finish even if admitted
// right now is refused up front. The returned release must be called
// exactly once, after the execution finishes. A shed request gets an
// *OverloadError; a request whose own context dies while queued gets
// ctx.Err() — a cancellation, not a shed.
func (a *admission) acquire(ctx context.Context, estimate time.Duration) (release func(), err error) {
	a.mu.Lock()
	if a.draining {
		a.shed++
		a.mu.Unlock()
		return nil, shedErr("draining", estimate)
	}
	if a.maxInflight <= 0 {
		a.inflight++
		a.mu.Unlock()
		return a.release, nil
	}
	if a.inflight < a.maxInflight && len(a.queue) == 0 {
		a.inflight++
		a.mu.Unlock()
		return a.release, nil
	}
	// The request would have to queue: shed it immediately if its budget
	// cannot even cover its own service time, or if the queue is full.
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < estimate {
		a.shed++
		a.mu.Unlock()
		return nil, shedErr("deadline", estimate)
	}
	if len(a.queue) >= a.maxQueue {
		a.shed++
		a.mu.Unlock()
		return nil, shedErr("queue-full", estimate)
	}
	w := &admitWaiter{ready: make(chan struct{}), estimate: estimate, enqueued: time.Now()}
	if dl, ok := ctx.Deadline(); ok {
		w.deadline = dl
	}
	a.queue = append(a.queue, w)
	a.queued++
	a.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		return a.release, nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, q := range a.queue {
			if q == w {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				a.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		a.mu.Unlock()
		// No longer queued: a concurrent release granted (or drain shed)
		// this waiter in the same instant its context died. Honor the
		// grant's bookkeeping, then report the caller's own cancellation.
		<-w.ready
		if w.err != nil {
			return nil, w.err
		}
		a.release()
		return nil, ctx.Err()
	}
}

// release frees one in-flight slot and promotes queued waiters in FIFO
// order.
func (a *admission) release() {
	a.mu.Lock()
	a.inflight--
	a.promote()
	a.mu.Unlock()
}

// promote grants queue heads while slots are free, shedding any whose
// deadline can no longer cover their estimated service time — admitting
// them would spend a scarce slot computing an answer nobody can receive in
// time. Caller holds mu.
func (a *admission) promote() {
	for len(a.queue) > 0 && a.inflight < a.maxInflight {
		w := a.queue[0]
		a.queue = a.queue[1:]
		if !w.deadline.IsZero() && time.Until(w.deadline) < w.estimate {
			a.shed++
			w.err = shedErr("deadline", w.estimate)
			close(w.ready)
			continue
		}
		a.inflight++
		a.queueWaitNs += time.Since(w.enqueued).Nanoseconds()
		close(w.ready)
	}
}

// drain closes the admission gate for shutdown: every queued waiter is shed
// and every future acquire is refused. In-flight executions are unaffected
// — they finish under the server's drain deadline.
func (a *admission) drain() {
	a.mu.Lock()
	a.draining = true
	for _, w := range a.queue {
		a.shed++
		w.err = shedErr("draining", w.estimate)
		close(w.ready)
	}
	a.queue = nil
	a.mu.Unlock()
}

// snapshot returns the controller's point-in-time gauges and cumulative
// counters. PanicsRecovered lives in the stats collector; Service.Stats
// merges it in.
func (a *admission) snapshot() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		MaxInflight: a.maxInflight,
		QueueDepth:  a.maxQueue,
		Inflight:    a.inflight,
		QueuedNow:   len(a.queue),
		Draining:    a.draining,
		Queued:      a.queued,
		QueueWaitNs: a.queueWaitNs,
		Shed:        a.shed,
	}
}
