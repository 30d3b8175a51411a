// Package parallel is the shared bounded worker-pool runtime behind every
// concurrent hot path in the repository: the HFL trainer's per-participant
// local updates, the interactive estimator's HVP loop, the Paillier
// vector operations of the secure VFL protocol, and the exact-Shapley
// coalition sweep. DIG-FL's pitch is contribution evaluation at (near) zero
// extra cost, so the evaluation pipeline's wall-clock matters as much as its
// utility-call count; this package bounds fan-out to a fixed worker budget
// (no goroutine-per-participant explosions at production participant counts)
// while keeping every result bit-identical to the serial path.
//
// Determinism contract: For and Map schedule iterations dynamically but each
// iteration writes only its own slot, so outputs never depend on worker
// count or interleaving; any reduction over those slots is the caller's,
// in index order.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"digfl/internal/obs"
)

// Workers resolves a requested worker count: w > 0 is used as-is; zero or
// negative selects runtime.GOMAXPROCS(0), the default worker budget.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on a bounded pool of at most
// Workers(workers) goroutines. Iterations are claimed dynamically from a
// shared counter, so uneven per-iteration cost balances automatically. fn
// must be safe for concurrent invocation when workers permits more than one
// goroutine; with a single worker (or n ≤ 1) fn runs on the calling
// goroutine with no synchronization at all, making For(n, 1, fn) an exact
// drop-in for the serial loop.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForObs is For plus observability: after the loop completes it emits one
// KindPoolTask event carrying the number of tasks executed and the
// effective worker count. With a nil sink it is exactly For — the event is
// never constructed.
func ForObs(n, workers int, sink obs.Sink, fn func(i int)) {
	For(n, workers, fn)
	if sink != nil && n > 0 {
		w := Workers(workers)
		if w > n {
			w = n
		}
		sink.Emit(obs.Event{Kind: obs.KindPoolTask, N: int64(n), Workers: w})
	}
}

// Map returns out where out[i] = fn(i), computed on the bounded pool. Each
// iteration writes only its own slot, so the result is identical for every
// worker count.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
