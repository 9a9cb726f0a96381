package core

import (
	"math"
	"math/rand"
	"testing"
)

// randGatherIdx fills idx with a random gather pattern for gatherLoop:
// iteration i either reads the input region (n+i, a root) or an earlier
// iteration j < i (a true dependency).
func randGatherIdx(rng *rand.Rand, idx []int, n int) {
	for i := range idx {
		if i == 0 || rng.Intn(3) == 0 {
			idx[i] = n + i
		} else {
			idx[i] = rng.Intn(i)
		}
	}
}

// gatherRef computes the sequential reference result of gatherLoop: the
// input region [n, 2n) holds i, and y[i] = y[idx[i]] + 1 in order.
func gatherRef(n int, idx []int) []float64 {
	ref := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ref[n+i] = float64(i)
	}
	for i := 0; i < n; i++ {
		ref[i] = ref[idx[i]] + 1
	}
	return ref
}

func runGather(t *testing.T, label string, rt *Runtime, l *Loop, n int, idx []int) Report {
	t.Helper()
	y := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		y[n+i] = float64(i)
	}
	rep, err := rt.Run(l, y)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref := gatherRef(n, idx)
	for i := 0; i < n; i++ {
		if y[i] != ref[i] {
			t.Fatalf("%s: y[%d] = %v, want %v", label, i, y[i], ref[i])
		}
	}
	return rep
}

// comparePlans asserts that a repaired plan is indistinguishable from the
// plan a cold inspection of the same (edited) pattern builds: writer index,
// graph, decomposition, statistics, imbalance cache and static schedule.
func comparePlans(t *testing.T, label string, got, want *wavefrontPlan) {
	t.Helper()
	if got.n != want.n || got.data != want.data || got.workers != want.workers {
		t.Fatalf("%s: plan shape n=%d data=%d workers=%d, want %d %d %d",
			label, got.n, got.data, got.workers, want.n, want.data, want.workers)
	}
	for e := range want.writer {
		if got.writer[e] != want.writer[e] {
			t.Fatalf("%s: writer[%d] = %d, want %d", label, e, got.writer[e], want.writer[e])
		}
	}
	g, w := got.graph, want.graph
	if g.Edges != w.Edges {
		t.Fatalf("%s: graph edges %d, want %d", label, g.Edges, w.Edges)
	}
	for i := 0; i < g.N; i++ {
		if len(g.Preds[i]) != len(w.Preds[i]) || len(g.Succs[i]) != len(w.Succs[i]) {
			t.Fatalf("%s: adjacency of %d diverges: preds %v vs %v, succs %v vs %v",
				label, i, g.Preds[i], w.Preds[i], g.Succs[i], w.Succs[i])
		}
		for k := range w.Preds[i] {
			if g.Preds[i][k] != w.Preds[i][k] {
				t.Fatalf("%s: Preds[%d] = %v, want %v", label, i, g.Preds[i], w.Preds[i])
			}
		}
		for k := range w.Succs[i] {
			if g.Succs[i][k] != w.Succs[i][k] {
				t.Fatalf("%s: Succs[%d] = %v, want %v", label, i, g.Succs[i], w.Succs[i])
			}
		}
	}
	if got.levels.Count() != want.levels.Count() {
		t.Fatalf("%s: %d levels, want %d", label, got.levels.Count(), want.levels.Count())
	}
	for i := 0; i < got.n; i++ {
		if got.levels.Level[i] != want.levels.Level[i] {
			t.Fatalf("%s: level[%d] = %d, want %d", label, i, got.levels.Level[i], want.levels.Level[i])
		}
	}
	for l := 0; l <= want.levels.Count(); l++ {
		if got.levels.Off[l] != want.levels.Off[l] {
			t.Fatalf("%s: Off[%d] = %d, want %d", label, l, got.levels.Off[l], want.levels.Off[l])
		}
	}
	for k := 0; k < got.n; k++ {
		if got.levels.Members[k] != want.levels.Members[k] {
			t.Fatalf("%s: Members[%d] = %d, want %d", label, k, got.levels.Members[k], want.levels.Members[k])
		}
	}
	gs, ws := got.stats, want.stats
	if gs.Iterations != ws.Iterations || gs.Edges != ws.Edges || gs.Levels != ws.Levels ||
		gs.MaxLevelWidth != ws.MaxLevelWidth || gs.CriticalPathLen != ws.CriticalPathLen ||
		gs.ScheduleRounds != ws.ScheduleRounds || gs.DynamicClaims != ws.DynamicClaims {
		t.Fatalf("%s: stats diverge:\n got %+v\nwant %+v", label, gs, ws)
	}
	if math.Abs(gs.StallWeight-ws.StallWeight) > 1e-9 {
		t.Fatalf("%s: StallWeight %v, want %v", label, gs.StallWeight, ws.StallWeight)
	}
	if math.Abs(gs.MeanLevelWidth-ws.MeanLevelWidth) > 1e-9 {
		t.Fatalf("%s: MeanLevelWidth %v, want %v", label, gs.MeanLevelWidth, ws.MeanLevelWidth)
	}
	if math.Abs(gs.ReadImbalance-ws.ReadImbalance) > 1e-9 {
		t.Fatalf("%s: ReadImbalance %v, want %v", label, gs.ReadImbalance, ws.ReadImbalance)
	}
	if (got.imb == nil) != (want.imb == nil) {
		t.Fatalf("%s: imbalance cache nil-ness diverges (%v vs %v)", label, got.imb == nil, want.imb == nil)
	}
	for l := range want.imb {
		if math.Abs(got.imb[l]-want.imb[l]) > 1e-9 {
			t.Fatalf("%s: level %d imbalance %v, want %v", label, l, got.imb[l], want.imb[l])
		}
	}
}

// TestRepairPlansPropertyAllExecutors drives random in-place edit sequences
// against every executor kind and checks after each repair that (a) the run
// result matches the sequential reference, (b) for the plan-building
// executors the patched plan is bit-identical to a cold plan of the edited
// pattern (including the lazily patched static schedule), and (c) the next
// run stamps Report.PlanRepaired.
func TestRepairPlansPropertyAllExecutors(t *testing.T) {
	execs := []struct {
		name     string
		kind     ExecutorKind
		hasPlans bool
	}{
		{"doacross", ExecDoacross, false},
		{"wavefront", ExecWavefront, true},
		{"wavefront-dynamic", ExecWavefrontDynamic, true},
		{"auto", ExecAuto, true},
	}
	for _, ex := range execs {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 4; trial++ {
				n := 48 + rng.Intn(96)
				idx := make([]int, n)
				randGatherIdx(rng, idx, n)
				l := gatherLoop(n, idx)
				opts := Options{
					Workers:  1 + rng.Intn(4),
					Executor: ex.kind,
					// Fixed coefficients keep ExecAuto deterministic and the
					// repair budget free of a calibration probe.
					AutoCosts: AutoCosts{BarrierNs: 100, FlagCheckNs: 10, ClaimNs: 25},
				}
				rt := NewRuntime(2*n, opts)
				runGather(t, "cold run", rt, l, n, idx)

				for step := 0; step < 6; step++ {
					// Mutate one to three iterations' gather sources in place.
					var edited []int
					for k := 1 + rng.Intn(3); k > 0; k-- {
						i := 1 + rng.Intn(n-1)
						if rng.Intn(3) == 0 {
							idx[i] = n + i
						} else {
							idx[i] = rng.Intn(i)
						}
						edited = append(edited, i, i) // duplicates must be fine
					}
					rep, err := rt.RepairPlans(l, EditSet{Iters: edited})
					if err != nil {
						t.Fatalf("trial %d step %d: RepairPlans: %v", trial, step, err)
					}
					if rep.Repaired != ex.hasPlans {
						t.Fatalf("trial %d step %d: Repaired = %v with executor %s", trial, step, rep.Repaired, ex.name)
					}

					if ex.hasPlans {
						// A cold runtime over the same edited pattern is the oracle.
						rt2 := NewRuntime(2*n, opts)
						runGather(t, "oracle cold run", rt2, l, n, idx)
						// Force both static schedules so the lazy suffix patch is exercised.
						p, p2 := rt.planMemo, rt2.planMemo
						if p == nil || p2 == nil {
							t.Fatalf("trial %d step %d: missing plan memo (repaired %v, cold %v)", trial, step, p != nil, p2 != nil)
						}
						s1 := p.staticSchedule(opts.Policy)
						s2 := p2.staticSchedule(opts.Policy)
						comparePlans(t, ex.name, p, p2)
						for lvl := 0; lvl < s2.Levels(); lvl++ {
							for w := 0; w < p2.workers; w++ {
								a, b := s1.Items(lvl, w), s2.Items(lvl, w)
								if len(a) != len(b) {
									t.Fatalf("trial %d step %d: static level %d worker %d: %v, want %v", trial, step, lvl, w, a, b)
								}
								for k := range a {
									if a[k] != b[k] {
										t.Fatalf("trial %d step %d: static level %d worker %d: %v, want %v", trial, step, lvl, w, a, b)
									}
								}
							}
						}
						rt2.Close()
					}

					runRep := runGather(t, "post-repair run", rt, l, n, idx)
					if ex.hasPlans {
						// Auto may select the doacross executor, whose runs
						// re-classify with flags and report no cache hit even
						// though the decision consulted the repaired plan.
						if !runRep.InspectCached && ex.kind != ExecAuto {
							t.Fatalf("trial %d step %d: repaired plan missed the cache", trial, step)
						}
						if !runRep.PlanRepaired || runRep.RepairNs <= 0 {
							t.Fatalf("trial %d step %d: first post-repair run not stamped (repaired=%v ns=%d)",
								trial, step, runRep.PlanRepaired, runRep.RepairNs)
						}
						second := runGather(t, "second post-repair run", rt, l, n, idx)
						if second.PlanRepaired || second.RepairNs != 0 {
							t.Fatalf("trial %d step %d: repair stamp leaked into the second run", trial, step)
						}
					} else if runRep.PlanRepaired {
						t.Fatalf("trial %d step %d: plan-free executor stamped PlanRepaired", trial, step)
					}
				}
				rt.Close()
			}
		})
	}
}

// TestRepairPlansConeBudgetFallsBack edits the root of a long dependency
// chain: the dirty cone is the whole loop, the cost model prefers a cold
// re-inspect, and RepairPlans must invalidate instead of patching.
func TestRepairPlansConeBudgetFallsBack(t *testing.T) {
	n := 4096
	idx := make([]int, n)
	for i := range idx {
		if i == 0 {
			idx[i] = n
		} else {
			idx[i] = i - 1 // one long chain: editing iteration 1 dirties everything
		}
	}
	l := gatherLoop(n, idx)
	rt := NewRuntime(2*n, Options{Workers: 2, Executor: ExecWavefront, AutoCosts: AutoCosts{BarrierNs: 100, FlagCheckNs: 10, ClaimNs: 25}})
	defer rt.Close()
	runGather(t, "cold run", rt, l, n, idx)

	idx[1] = n + 1 // cut the chain at its head: every level shifts
	rep, err := rt.RepairPlans(l, EditSet{Iters: []int{1}})
	if err != nil {
		t.Fatalf("RepairPlans: %v", err)
	}
	if rep.Repaired {
		t.Fatalf("a whole-loop cone was repaired under the cost budget (cone %d)", rep.ConeSize)
	}
	if rep.ConeSize == 0 {
		t.Fatal("fallback report carries no cone size")
	}
	next := runGather(t, "post-fallback run", rt, l, n, idx)
	if next.InspectCached {
		t.Fatal("fallback did not invalidate the plan cache")
	}
	if next.PlanRepaired {
		t.Fatal("fallback stamped PlanRepaired")
	}
}

// TestRepairPlansValidation covers the error paths: nil loop, out-of-range
// iterations and retired elements must fail without touching the cache.
func TestRepairPlansValidation(t *testing.T) {
	n := 32
	idx := make([]int, n)
	for i := range idx {
		idx[i] = n + i
	}
	l := gatherLoop(n, idx)
	rt := NewRuntime(2*n, Options{Workers: 2, Executor: ExecWavefront})
	defer rt.Close()
	runGather(t, "cold run", rt, l, n, idx)

	if _, err := rt.RepairPlans(nil, EditSet{}); err == nil {
		t.Fatal("nil loop accepted")
	}
	if _, err := rt.RepairPlans(l, EditSet{Iters: []int{n}}); err == nil {
		t.Fatal("out-of-range iteration accepted")
	}
	if _, err := rt.RepairPlans(l, EditSet{Iters: []int{-1}}); err == nil {
		t.Fatal("negative iteration accepted")
	}
	if _, err := rt.RepairPlans(l, EditSet{RetiredElems: []int{2 * n}}); err == nil {
		t.Fatal("out-of-range retired element accepted")
	}
	// The rejected calls must not have perturbed the cached plan.
	rep := runGather(t, "post-error run", rt, l, n, idx)
	if !rep.InspectCached {
		t.Fatal("validation errors evicted the cached plan")
	}

	// An empty edit set against a cached plan is a trivial repair.
	rep2, err := rt.RepairPlans(l, EditSet{})
	if err != nil || !rep2.Repaired {
		t.Fatalf("empty edit set: repaired=%v err=%v", rep2.Repaired, err)
	}

	// Repairing a loop with no cached plan falls back to invalidation.
	other := gatherLoop(n, idx)
	rep3, err := rt.RepairPlans(other, EditSet{Iters: []int{0}})
	if err != nil {
		t.Fatalf("RepairPlans on an uncached loop: %v", err)
	}
	if rep3.Repaired {
		t.Fatal("uncached loop reported a repair")
	}
	cold := runGather(t, "post-uncached-repair run", rt, l, n, idx)
	if cold.InspectCached {
		t.Fatal("uncached-loop repair must invalidate the whole cache")
	}
}
