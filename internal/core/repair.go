package core

import (
	"fmt"
	"sort"
	"time"

	"doacross/internal/depgraph"
	"doacross/internal/sched"
	"doacross/internal/tune"
)

// EditSet describes an in-place mutation of a loop's access pattern: the
// caller changed what some iterations write or read (through the index
// arrays the Writes/Reads closures consult) and tells the runtime which
// iterations are affected, instead of discarding every cached plan with
// InvalidatePlans.
type EditSet struct {
	// Iters lists every iteration whose Writes or Reads result changed. When
	// an edit moves a write from one element to another, the readers of both
	// elements change predecessors too and must be listed; pure read-pattern
	// edits (the triangular-solve row update, where writes are the identity)
	// need only the edited iterations themselves. Duplicates are allowed.
	Iters []int
	// RetiredElems lists data elements that were written by some iteration
	// before the edit and are no longer written by any iteration after it, so
	// the plan's writer index can forget them. Elements whose writer merely
	// changed need not be listed — re-recording the new writers covers them.
	RetiredElems []int
}

// RepairReport describes what RepairPlans did.
type RepairReport struct {
	// Repaired reports that the cached plan was patched in place. False
	// means the runtime fell back to a full invalidation — no plan was
	// cached for the loop, or the dirty cone exceeded the cost-model budget —
	// and the next run will re-inspect cold.
	Repaired bool
	// ConeSize is the number of iterations whose level was recomputed (on
	// fallback: how many had been visited when the budget was exhausted).
	ConeSize int
	// FromLevel is the earliest wavefront level the repair perturbed; levels
	// below it kept their exact schedule. Equal to Levels when the edit
	// changed no level membership at all.
	FromLevel int
	// Levels is the repaired plan's level count.
	Levels int
	// RepairTime is how long the repair (or the fallback) took.
	RepairTime time.Duration
}

// RepairPlans patches the cached wavefront plan of l after an in-place edit
// of its access pattern, instead of evicting it: the plan's writer index is
// re-recorded for the edited iterations, their dependency-graph predecessor
// lists are recomputed and applied as graph edits, and the level
// decomposition, inspection statistics and (lazily) the static schedule are
// repaired only in the dirty cone — the edited iterations plus the
// transitive successors whose level actually moves. For a few edited rows of
// a large loop this is orders of magnitude cheaper than the cold re-inspect
// an InvalidatePlans forces, which is what makes per-step sparsity changes
// (mesh refinement, ILU fill-in) affordable.
//
// The repair falls back to a full invalidation — returning Repaired == false
// with a nil error — when no repairable plan is cached for l (the plan must
// be the one the loop's own previous runs built: repaired plans are tracked
// through the pointer-identity memo), or when the dirty cone exceeds the
// break-even budget (tune.BreakEvenCone), in which case a cold re-inspect is
// predicted cheaper anyway. Either way the cache is left consistent with the
// edited pattern; callers never need to pair RepairPlans with
// InvalidatePlans.
//
// Like InvalidatePlans it serializes with runs and is safe to call
// concurrently with them. The loop's next run stamps Report.PlanRepaired and
// Report.RepairNs so drivers can observe which path each edit took.
func (rt *Runtime) RepairPlans(l *Loop, edits EditSet) (RepairReport, error) {
	if l == nil {
		return RepairReport{}, fmt.Errorf("core: RepairPlans requires a loop")
	}
	start := time.Now()
	rt.runMu.Lock()
	defer rt.runMu.Unlock()

	for _, i := range edits.Iters {
		if i < 0 || i >= l.N {
			return RepairReport{}, fmt.Errorf("core: RepairPlans: iteration %d out of range [0, %d)", i, l.N)
		}
	}
	for _, e := range edits.RetiredElems {
		if e < 0 || e >= l.Data {
			return RepairReport{}, fmt.Errorf("core: RepairPlans: retired element %d out of range [0, %d)", e, l.Data)
		}
	}

	plan := rt.planMemo
	if rt.planMemoLoop != l || plan == nil || plan.gen != rt.planGen || plan.graph == nil || plan.n != l.N {
		// Nothing repairable is cached for this loop; evict everything so no
		// stale plan (reachable through the hash tier from an equal-pattern
		// Loop) survives the mutation.
		rt.recordPlan(PlanRepairFallback)
		rt.invalidateLocked()
		return RepairReport{RepairTime: time.Since(start)}, nil
	}
	if len(edits.Iters) == 0 && len(edits.RetiredElems) == 0 {
		rt.recordPlan(PlanRepaired)
		return RepairReport{Repaired: true, FromLevel: plan.stats.Levels, Levels: plan.stats.Levels, RepairTime: time.Since(start)}, nil
	}

	dirty := append([]int(nil), edits.Iters...)
	sort.Ints(dirty)
	w := 0
	for _, i := range dirty {
		if w == 0 || dirty[w-1] != i {
			dirty[w] = i
			w++
		}
	}
	dirty = dirty[:w]

	// Phase 1 — the only phase that calls user closures: capture the edited
	// iterations' new writes and reads before touching the plan, so a
	// panicking closure surfaces as an error with the cache intact.
	writes := make([][]int, len(dirty))
	reads := make([][]int, len(dirty))
	if err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: repair inspector panicked: %v", r)
			}
		}()
		for k, i := range dirty {
			writes[k] = append([]int(nil), l.Writes(i)...)
			if l.Reads != nil {
				reads[k] = append([]int(nil), l.Reads(i)...)
			}
		}
		return nil
	}(); err != nil {
		return RepairReport{}, err
	}
	for k, ws := range writes {
		for _, e := range ws {
			if e < 0 || e >= len(plan.writer) {
				return RepairReport{}, fmt.Errorf("core: RepairPlans: iteration %d writes element %d out of range [0, %d)", dirty[k], e, len(plan.writer))
			}
		}
	}

	// Phase 2 — pure plan surgery; from here on a failure must invalidate,
	// since the writer index and graph mutate in place.
	for _, e := range edits.RetiredElems {
		plan.writer[e] = -1
	}
	for k, ws := range writes {
		for _, e := range ws {
			plan.writer[e] = int32(dirty[k])
		}
	}
	g := plan.graph
	workers := rt.opts.Workers
	stallDelta := 0.0
	gedits := make([]depgraph.Edit, len(dirty))
	for k, i := range dirty {
		var preds []int32
		for _, e := range reads[k] {
			if e < 0 || e >= len(plan.writer) {
				continue
			}
			j := plan.writer[e]
			if j < 0 || int(j) >= i {
				// Not written, self dependence, or anti-dependence (removed
				// by renaming) — the cold inspector's classification.
				continue
			}
			preds = append(preds, j)
		}
		stallDelta -= g.StallShare(i, workers)
		gedits[k] = depgraph.Edit{Iter: i, Preds: preds}
	}
	if err := g.ApplyEdits(gedits); err != nil {
		rt.recordPlan(PlanRepairFallback)
		rt.invalidateLocked()
		return RepairReport{RepairTime: time.Since(start)}, err
	}
	for _, i := range dirty {
		stallDelta += g.StallShare(i, workers)
	}

	budget := tune.BreakEvenCone(plan.n, g.Edges)
	dirty32 := make([]int32, len(dirty))
	for k, i := range dirty {
		dirty32[k] = int32(i)
	}
	res := g.RepairLevelsInto(&plan.levels, dirty32, budget)
	if !res.Ok {
		// The cone outgrew the cost model's break-even point: a cold
		// re-inspect is predicted cheaper than continuing, so take it.
		rt.recordPlan(PlanRepairFallback)
		rt.invalidateLocked()
		return RepairReport{ConeSize: res.Cone, RepairTime: time.Since(start)}, nil
	}

	rt.patchPlanStats(plan, res, dirty, stallDelta)

	// The structural-hash tier stored the pre-edit pattern's digest; evict it
	// so an equal-pattern Loop built from the old indices cannot hit the
	// repaired plan. Rehashing would cost the full closure sweep repair
	// avoids, so the plan stays reachable through the pointer memo only.
	if plan.hash != 0 {
		if cp, ok := rt.planCache[plan.hash]; ok && cp == plan {
			delete(rt.planCache, plan.hash)
		}
		plan.hash = 0
	}

	elapsed := time.Since(start)
	rt.pendingRepairLoop = l
	rt.pendingRepairNs += elapsed.Nanoseconds()
	rt.recordPlan(PlanRepaired)
	return RepairReport{
		Repaired:   true,
		ConeSize:   res.Cone,
		FromLevel:  res.FromLevel,
		Levels:     plan.stats.Levels,
		RepairTime: elapsed,
	}, nil
}

// patchPlanStats brings the plan's derived state — inspection statistics,
// worker clamp, per-level imbalance cache and the static schedule's dirty
// mark — in line with the freshly repaired graph and decomposition. Only the
// O(levels) summaries and the perturbed levels are recomputed; nothing
// rescans the whole loop unless the worker clamp itself moved.
func (rt *Runtime) patchPlanStats(plan *wavefrontPlan, res depgraph.RepairResult, dirty []int, stallDelta float64) {
	g := plan.graph
	ls := &plan.levels
	st := &plan.stats
	st.Edges = g.Edges
	st.StallWeight += stallDelta
	p := rt.levelStats(st, ls)
	levels := st.Levels

	if p != plan.workers {
		// The widest level crossed the worker count, changing the schedule's
		// worker clamp: every level's distribution is stale, so drop the
		// schedule (rebuilt lazily) and recompute the imbalance cache whole.
		plan.workers = p
		plan.static = nil
		plan.staticFrom = -1
		plan.imb = levelImbalances(g, ls, rt.opts.Policy, p)
	} else {
		if plan.static != nil && res.Changed > 0 {
			if plan.staticFrom < 0 || res.FromLevel < plan.staticFrom {
				plan.staticFrom = res.FromLevel
			}
		}
		if plan.imb != nil {
			// A level's imbalance moves when its membership changed
			// (res.ChangedLevels) or when an edited iteration's in-degree
			// changed without moving it (its current level).
			if len(plan.imb) < levels {
				imb := make([]float64, levels)
				copy(imb, plan.imb)
				plan.imb = imb
			} else {
				plan.imb = plan.imb[:levels]
			}
			for _, lvl := range res.ChangedLevels {
				plan.imb[lvl] = levelImbalanceAt(g, ls, rt.opts.Policy, p, int(lvl))
			}
			for _, i := range dirty {
				plan.imb[ls.Level[i]] = levelImbalanceAt(g, ls, rt.opts.Policy, p, int(ls.Level[i]))
			}
		}
	}
	st.ReadImbalance = 0
	for _, v := range plan.imb {
		st.ReadImbalance += v
	}
}

// levelStats fills the inspection statistics that follow from the level
// decomposition alone — Levels, CriticalPathLen, MaxLevelWidth,
// MeanLevelWidth (over st.Iterations), ScheduleRounds and DynamicClaims —
// and returns the static schedule's worker clamp: the configured workers,
// at most the widest level (workers beyond it would only spin at the
// barriers) and at least one. The cold inspection and every incremental
// repair derive them here; it allocates nothing.
func (rt *Runtime) levelStats(st *InspectStats, ls *depgraph.LevelSet) (p int) {
	levels := ls.Count()
	st.Levels, st.CriticalPathLen = levels, levels
	st.MaxLevelWidth = ls.MaxWidth()
	st.MeanLevelWidth = 0
	if levels > 0 {
		st.MeanLevelWidth = float64(st.Iterations) / float64(levels)
	}
	p = max(min(rt.opts.Workers, st.MaxLevelWidth), 1)
	chunk := rt.chunk()
	st.ScheduleRounds, st.DynamicClaims = 0, 0
	for lvl := 0; lvl < levels; lvl++ {
		w := int(ls.Off[lvl+1] - ls.Off[lvl])
		st.ScheduleRounds += (w + p - 1) / p
		st.DynamicClaims += sched.DynamicClaims(w, chunk, p)
	}
	return p
}
