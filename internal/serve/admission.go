package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrOverloaded is returned when a query is shed by admission control:
// the service already has MaxInflight queries executing and QueueDepth
// more waiting. HTTP layers map it onto 429 Too Many Requests so
// clients back off instead of piling onto a saturated service.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// admission is a per-service bounded execution queue: at most
// maxInflight queries execute concurrently, at most queueDepth more
// wait for a slot, and everything beyond that is shed immediately with
// ErrOverloaded. Shedding at the front door keeps the queue from
// growing without bound and converting overload into unbounded tail
// latency — the service degrades to fast 429s instead.
//
// A nil *admission is the no-op used when Options leaves MaxInflight
// zero (unlimited).
type admission struct {
	sem        chan struct{} // capacity = maxInflight; holding a token = executing
	queueDepth int64
	waiting    atomic.Int64
	shed       atomic.Int64
}

// newAdmission builds the queue; maxInflight <= 0 disables admission
// control entirely (returns nil).
func newAdmission(maxInflight, queueDepth int) *admission {
	if maxInflight <= 0 {
		return nil
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &admission{
		sem:        make(chan struct{}, maxInflight),
		queueDepth: int64(queueDepth),
	}
}

// acquire obtains an execution slot, waiting in the bounded queue if
// none is free. It returns ErrOverloaded when the queue is full and the
// context's error if the caller gives up while queued.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	// Fast path: a slot is free, skip the queue accounting.
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	if a.waiting.Add(1) > a.queueDepth {
		a.waiting.Add(-1)
		a.shed.Add(1)
		return ErrOverloaded
	}
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns an execution slot.
func (a *admission) release() {
	if a != nil {
		<-a.sem
	}
}

// shedCount returns how many queries admission control has shed.
func (a *admission) shedCount() int64 {
	if a == nil {
		return 0
	}
	return a.shed.Load()
}
