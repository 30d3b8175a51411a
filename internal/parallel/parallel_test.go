package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index must run exactly once, for any worker count.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		n := 257
		counts := make([]atomic.Int32, n)
		For(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// The pool must never exceed the requested worker budget: the peak number
// of concurrently running iterations stays ≤ workers no matter how the
// scheduler interleaves them.
func TestForRespectsWorkerBound(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	For(256, workers, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched() // widen the window in which overlap is observable
		inFlight.Add(-1)
	})
	if p := peak.Load(); int(p) > workers {
		t.Fatalf("observed %d concurrent iterations, budget %d", p, workers)
	}
	// And with a budget far above n, fan-out is still capped at n.
	inFlight.Store(0)
	peak.Store(0)
	For(4, 1000, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent iterations for n=4", p)
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	ran := false
	For(0, 4, func(int) { ran = true })
	For(-5, 4, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for non-positive n")
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(7) != 7 {
		t.Fatal("positive worker count must pass through")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive worker count must resolve to at least 1")
	}
}

// Map output must be bit-identical across worker counts.
func TestMapDeterministic(t *testing.T) {
	fn := func(i int) float64 { return 1.0 / float64(i+1) }
	want := Map(1000, 1, fn)
	for _, workers := range []int{2, 4, 16} {
		got := Map(1000, workers, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}
