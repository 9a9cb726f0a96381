package core

import (
	"fmt"
	"sync"
	"testing"

	"doacross/internal/flags"
)

// gatherLoop builds the mutable-index loop the plan invalidation exists for:
// y[i] = y[idx[i]] + 1 over a data array whose back half [n, 2n) is the
// input region, with idx owned by the caller and mutated in place between
// runs. Reads reports idx, so the wavefront inspector derives its level
// schedule from whatever the array holds at inspection time — exactly the
// pattern that goes stale when the caller mutates idx afterwards.
func gatherLoop(n int, idx []int) *Loop {
	return &Loop{
		N:      n,
		Data:   2 * n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return idx[i : i+1] },
		Body: func(i int, v *Values) {
			v.Store(i, v.Load(idx[i])+1)
		},
	}
}

// TestInvalidatePlansEvictsMutatedPattern is the satellite acceptance test:
// a driver that mutates its index array in place (same *Loop value, so both
// cache tiers would otherwise hit) calls InvalidatePlans and must get a
// fresh, correct schedule for the new dependence structure; without the
// call the stale plan — with the old pattern's level decomposition — is
// silently replayed.
func TestInvalidatePlansEvictsMutatedPattern(t *testing.T) {
	n := 256
	idx := make([]int, n)
	y := make([]float64, 2*n)
	// shift s makes iteration i depend on i-s (chains of stride s), giving
	// ceil(n/s) wavefront levels — the level count is the fingerprint of
	// which pattern a plan was built for.
	fill := func(shift int) {
		for i := range idx {
			if i < shift {
				idx[i] = n + i
			} else {
				idx[i] = i - shift
			}
		}
	}
	runtime := NewRuntime(2*n, Options{Workers: 2, Executor: ExecWavefront})
	defer runtime.Close()
	l := gatherLoop(n, idx)

	run := func(label string, shift int) Report {
		t.Helper()
		for i := 0; i < n; i++ {
			y[n+i] = float64(i)
		}
		rep, err := runtime.Run(l, y)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return rep
	}
	check := func(label string, shift int) {
		t.Helper()
		for i := 0; i < n; i++ {
			want := float64(i%shift) + float64(i/shift) + 1
			if y[i] != want {
				t.Fatalf("%s: y[%d] = %v, want %v", label, i, y[i], want)
			}
		}
	}

	// Cold inspection of the stride-4 pattern: ceil(256/4) = 64 levels.
	fill(4)
	rep := run("cold run", 4)
	if rep.InspectCached {
		t.Fatal("first run claimed a cache hit")
	}
	if rep.Levels != 64 {
		t.Fatalf("stride-4 pattern decomposed into %d levels, want 64", rep.Levels)
	}
	check("cold run", 4)

	// Mutating the pattern without invalidation silently replays the stale
	// plan — the pointer-identity tier cannot see the mutation, and the
	// replayed schedule still carries the old pattern's 64 levels. (The
	// stale finer schedule happens to refine the coarser new pattern, so
	// this direction stays well-defined; the reverse direction is the
	// silent-corruption hazard InvalidatePlans exists for.)
	fill(8)
	rep = run("stale run", 8)
	if !rep.InspectCached {
		t.Fatal("mutated pattern without invalidation unexpectedly missed the cache")
	}
	if rep.Levels != 64 {
		t.Fatalf("stale run executed %d levels, expected the stale plan's 64", rep.Levels)
	}

	// With invalidation the next run re-inspects cold: the new pattern's
	// ceil(256/8) = 32 levels, and a correct result.
	runtime.InvalidatePlans()
	rep = run("post-invalidation run", 8)
	if rep.InspectCached {
		t.Fatal("run after InvalidatePlans still hit the schedule cache")
	}
	if rep.Levels != 32 {
		t.Fatalf("stride-8 pattern decomposed into %d levels, want 32", rep.Levels)
	}
	check("post-invalidation run", 8)

	// The new plan is cached again under the new generation.
	rep = run("warm run", 8)
	if !rep.InspectCached {
		t.Fatal("re-run after invalidation did not re-populate the cache")
	}
	check("warm run", 8)
}

// TestConcurrentAutoRunsShareScheduleCache is the race/stress satellite:
// concurrent Run calls under ExecAuto on one runtime — cold cache, warm
// cache, and mid-flight invalidations — must serialize safely (run with
// -race) and every run must produce the correct result.
func TestConcurrentAutoRunsShareScheduleCache(t *testing.T) {
	n := 128
	data := 2 * n
	rt := NewRuntime(data, Options{
		Workers:      2,
		WaitStrategy: flags.WaitSpinYield,
		Executor:     ExecAuto,
		// Fixed coefficients keep the Auto decision deterministic and skip
		// the probe so the stress loop spends its time in Run.
		AutoCosts: AutoCosts{BarrierNs: 100, FlagCheckNs: 10, ClaimNs: 25},
	})
	defer rt.Close()

	// A handful of structurally distinct loop shapes so the goroutines churn
	// the structural-hash tier as well as the pointer memo.
	loops := make([]*Loop, 4)
	for k := range loops {
		shift := k + 1
		loops[k] = &Loop{
			N:      n,
			Data:   data,
			Writes: func(i int) []int { return []int{i} },
			Reads: func(i int) []int {
				if i < shift {
					return []int{n + i}
				}
				return []int{i - shift}
			},
			Body: func(i int, v *Values) {
				if i < shift {
					v.Store(i, v.Load(n+i)+1)
				} else {
					v.Store(i, v.Load(i-shift)+1)
				}
			},
		}
	}

	const goroutines = 8
	const runsEach = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			y := make([]float64, data)
			for r := 0; r < runsEach; r++ {
				l := loops[(gid+r)%len(loops)]
				shift := (gid+r)%len(loops) + 1
				for i := 0; i < n; i++ {
					y[n+i] = float64(i)
				}
				if _, err := rt.Run(l, y); err != nil {
					errs <- fmt.Errorf("goroutine %d run %d: %w", gid, r, err)
					return
				}
				for i := 0; i < n; i++ {
					want := float64(i%shift) + float64(i/shift) + 1
					if y[i] != want {
						errs <- fmt.Errorf("goroutine %d run %d: y[%d] = %v, want %v", gid, r, i, y[i], want)
						return
					}
				}
				if r%10 == 5 && gid == 0 {
					rt.InvalidatePlans()
				}
			}
		}(gid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
