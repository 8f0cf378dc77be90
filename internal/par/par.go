// Package par provides the deterministic fork-join primitive the
// pipeline's hot paths share: a bounded worker pool that processes a
// fixed index space in chunks and writes results into caller-owned,
// index-addressed slots. Because every unit of work is keyed by its
// index — never by arrival order — the output of a parallel run is
// byte-identical to the serial run regardless of worker count or
// scheduling, which is the contract determinism_test.go enforces on the
// whole pipeline.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// chunkSize is the number of consecutive indices a worker claims per
// atomic fetch in For. Chunking keeps the claim counter off the hot path
// for cheap, numerous items (a Hearst parse is ~1µs). It does not
// balance coarse work: a loop of at most 64 items is a single claim, so
// one worker runs all of it. Loops over coarse per-item work — one
// concept's walks, KPCA fit or manifold matrix — use ForChunked with a
// chunk of 1.
const chunkSize = 64

// Workers normalizes a parallelism knob: values below 1 mean "use every
// CPU" (runtime.NumCPU), 1 selects the serial path, higher values are
// used as given.
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// capturedPanic wraps a panic value that crossed a worker-goroutine
// boundary. Without the capture, a panicking fn would crash the process
// outright — a recover in the For caller's frames cannot see a panic on
// another goroutine — so the pool records the first panic and re-throws
// it on the calling goroutine after the join. Value preserves the
// original panic payload for errors.As / type inspection.
type capturedPanic struct {
	Value any
}

// Error renders the captured panic; capturedPanic is an error so
// recovery layers can errors.Is/As into the original payload.
func (c *capturedPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v", c.Value)
}

// Unwrap exposes the original panic value when it was itself an error.
func (c *capturedPanic) Unwrap() error {
	if err, ok := c.Value.(error); ok {
		return err
	}
	return nil
}

// For runs fn(i) for every i in [0, n) using the given number of
// workers. With workers <= 1 (or a trivially small n) it degrades to a
// plain loop on the calling goroutine — the serial A/B path. fn must be
// safe to call concurrently and must not assume any ordering between
// indices; determinism comes from writing results into per-index slots.
//
// If fn panics on a worker, the first panic is captured and re-thrown
// on the calling goroutine (wrapped in an error that Unwraps to the
// original value) after all workers have drained, so callers can treat
// a parallel stage exactly like a serial one under recover.
func For(n, workers int, fn func(i int)) {
	ForChunked(n, workers, chunkSize, fn)
}

// ForChunked is For with an explicit chunk size, for workloads whose
// per-item cost is coarse or uneven (one shard or one concept per item)
// so the caller pins the claim granularity, usually to 1. It shares
// For's panic contract: the first worker panic is re-thrown on the
// calling goroutine.
func ForChunked(n, workers, chunk int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var caught *capturedPanic
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { caught = &capturedPanic{Value: r} })
				}
			}()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
}
