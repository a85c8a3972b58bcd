// Package pool is the pipeline's work scheduler: a bounded parallel-for
// with cooperative cancellation. The embarrassingly-parallel stages of the
// labeling pipeline — the rows of each round of the matcher's pairwise
// similarity pass, and the naming algorithm's per-group solver and
// per-node candidate derivation — fan out through ForEach, writing results
// into index-addressed slots so the parallel schedule can never change the
// output: every unit is a pure function of its input, and slot i holds
// unit i's result regardless of which worker computed it or when. (The
// matcher's rows read a union-find forest that only changes between
// rounds, so each row stays a pure function of the input.)
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism setting: zero (and negative) selects
// GOMAXPROCS, anything else is taken literally. Stages treat 1 as "serial".
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SerialThreshold is the unit count below which ForEach runs the plain
// serial loop regardless of the requested worker count: spawning and
// joining goroutines costs more than the work itself on tiny inputs (the
// small domains of the paper's corpus have a handful of groups per stage).
const SerialThreshold = 16

// chunkSize picks how many consecutive indices one atomic claim hands a
// worker: enough to amortize the claim over the unit work, small enough
// that the last chunks still balance across workers (≥ 8 claims per
// worker).
func chunkSize(workers, n int) int {
	c := n / (workers * 8)
	if c < 1 {
		return 1
	}
	return c
}

// ForEach invokes fn(worker, i) for every i in [0, n), distributing the
// indices over up to `workers` goroutines (0 or negative: GOMAXPROCS; the
// worker count never exceeds n). The worker argument identifies the calling
// goroutine in [0, workers), so callers can keep per-worker scratch state
// (e.g. a naming.Semantics, whose analysis cache is not concurrency-safe)
// without locking.
//
// Workers claim chunks of consecutive indices from one atomic counter, so
// dispatch overhead amortizes over the chunk; inputs below SerialThreshold
// skip goroutine spawn entirely and run the plain loop. Neither choice can
// change the output: units are pure functions of their index, addressed by
// slot.
//
// Cancellation is cooperative: each worker checks ctx between units and
// stops claiming new work once the context is done; in-flight units finish.
// ForEach returns ctx.Err() when the context was canceled (some units may
// not have run), nil otherwise. With workers == 1 the units run on the
// calling goroutine in index order, so a serial configuration is not merely
// equivalent to the parallel one — it is the plain loop.
func ForEach(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 || n < SerialThreshold {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return ctx.Err()
	}
	chunk := chunkSize(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if ctx.Err() != nil {
						return
					}
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
