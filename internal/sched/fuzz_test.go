package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzDynamicLoop fuzzes the self-scheduling claim loop — both the position
// form (DynamicLoop) and the member-list form (DynamicLoopOver) — over
// iteration count, chunk size, worker count and a stop predicate, asserting
// the two invariants every executor built on it relies on:
//
//  1. without a stop, every position is executed exactly once, whatever the
//     interleaving of concurrent claims;
//  2. a stop is honored within one chunk per worker: once the predicate
//     trips, each worker finishes at most the chunk it already claimed, so
//     the overshoot beyond the trip point is bounded by workers*chunk.
func FuzzDynamicLoop(f *testing.F) {
	f.Add(int64(1), 100, 16, 4, -1, false)
	f.Add(int64(2), 1, 1, 1, -1, true)
	f.Add(int64(3), 1000, 7, 8, 50, true)
	f.Add(int64(4), 0, 16, 3, -1, false)
	f.Add(int64(5), 63, 64, 2, 0, true)
	f.Fuzz(func(t *testing.T, seed int64, n, chunk, workers, stopAfter int, overList bool) {
		n = clampFuzz(n, 0, 2000)
		chunk = clampFuzz(chunk, 1, 64)
		workers = clampFuzz(workers, 1, 8)
		if stopAfter > n {
			stopAfter = -1
		}

		// The member list is a random permutation so a position claim and the
		// iteration it executes are distinct notions, as in a wavefront level.
		members := make([]int32, n)
		for i := range members {
			members[i] = int32(i)
		}
		rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) {
			members[i], members[j] = members[j], members[i]
		})

		counts := make([]atomic.Int32, n)
		var executed atomic.Int64
		body := func(worker, iter int) {
			if iter < 0 || iter >= n {
				t.Fatalf("iteration %d out of range [0,%d)", iter, n)
			}
			counts[iter].Add(1)
			executed.Add(1)
		}
		var stop func() bool
		if stopAfter >= 0 {
			stop = func() bool { return executed.Load() >= int64(stopAfter) }
		}

		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if overList {
					DynamicLoopOver(&next, members, chunk, w, body, stop)
				} else {
					DynamicLoop(&next, n, chunk, w, body, stop)
				}
			}(w)
		}
		wg.Wait()

		if stopAfter < 0 {
			if got := executed.Load(); got != int64(n) {
				t.Fatalf("executed %d of %d positions", got, n)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("position %d executed %d times", i, c)
				}
			}
			return
		}
		// Stopped run: nothing runs twice, and each worker overshoots the
		// trip point by at most the one chunk it had already claimed.
		for i := range counts {
			if c := counts[i].Load(); c > 1 {
				t.Fatalf("position %d executed %d times under stop", i, c)
			}
		}
		if got, bound := executed.Load(), int64(stopAfter+workers*chunk); got > bound {
			t.Fatalf("stop overshoot: executed %d, bound %d (stopAfter=%d workers=%d chunk=%d)",
				got, bound, stopAfter, workers, chunk)
		}
	})
}

func clampFuzz(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
