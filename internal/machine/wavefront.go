package machine

import (
	"fmt"
	"math"

	"doacross/internal/depgraph"
	"doacross/internal/sched"
)

// WavefrontCosts extends a CostModel with the costs specific to the two
// wavefront executors. The doacross costs it replaces (CheckPerRead,
// IterOverhead) are never charged by the wavefront models.
type WavefrontCosts struct {
	// Barrier is the cost of one level barrier: the rendezvous of all
	// processors between two consecutive levels. It is charged once per
	// level, including the last (the executor's end-of-phase rendezvous).
	Barrier float64
	// IterOverhead is the fixed per-iteration executor overhead of the
	// pre-scheduled execution: seeding ynew and loop bookkeeping, with no
	// flags to check, set or reset.
	IterOverhead float64
	// Claim is the cost of one dynamic chunk claim — the contended atomic
	// fetch-add of the self-scheduling loop. Charged only by
	// SimulateDynamicWavefront: once per successful chunk claim, plus the one
	// failed claim with which each processor discovers a level is exhausted.
	Claim float64
	// Chunk is the dynamic model's chunk size: how many member positions one
	// claim hands out. Zero means sched.DefaultChunk, matching the live
	// executor's default; like the live executor, the model clamps the chunk
	// per level (sched.LevelChunk) so a narrow level is never serialized by
	// one oversized claim.
	Chunk int
}

// levelFunc replays level l of a wavefront execution under the (possibly
// zeroed) costs wc: it adds each worker's time in the level to busy and
// returns the level's elapsed time — its slowest worker's — and the number
// of chunk claims it issued.
type levelFunc func(l int, wc WavefrontCosts, busy []float64) (elapsed float64, claims int)

// replayLevels is the replay both wavefront models share: it validates the
// configuration, sums TSeq, zeroes every overhead under cfg.SkipOverheads,
// charges the preprocessing phase as the parallel inspector (ceil(N/P) *
// PrePerIter, unless cfg.SkipInspector) and the postprocessing phase as the
// copy-back doall (ceil(N/P) * PostPerIter, unless cfg.SkipPostprocess), and
// runs the executor phase as the sum over levels of level's elapsed time
// plus one barrier. WaitTime is zero by construction — there are no flags to
// wait on, and within-level imbalance appears as idle time at the barriers,
// i.e. in the gap between ExecTime and the ProcBusy fractions.
func replayLevels(n, levels, workers int, cfg Config, cm CostModel, wc WavefrontCosts, level levelFunc) (Result, error) {
	p := cfg.Processors
	if p < 1 {
		return Result{}, fmt.Errorf("machine: need at least one processor, got %d", p)
	}
	if cm.BaseWork == nil && cm.TermWork == 0 {
		return Result{}, fmt.Errorf("machine: cost model requires BaseWork or TermWork")
	}
	res := Result{Processors: p, Iterations: n, Levels: levels}
	for i := 0; i < n; i++ {
		res.TSeq += cm.IterWork(i)
	}

	prePerIter := cm.PrePerIter
	postPerIter := cm.PostPerIter
	if cfg.SkipOverheads {
		wc.IterOverhead, wc.Barrier, wc.Claim, prePerIter, postPerIter = 0, 0, 0, 0, 0
	}
	perProc := int(math.Ceil(float64(n) / float64(p)))
	if !cfg.SkipInspector {
		res.PreTime = float64(perProc) * prePerIter
	}
	if !cfg.SkipPostprocess {
		res.PostTime = float64(perProc) * postPerIter
	}

	busy := make([]float64, workers)
	exec := 0.0
	claims := 0
	for l := 0; l < levels; l++ {
		elapsed, c := level(l, wc, busy)
		exec += elapsed + wc.Barrier
		claims += c
	}
	res.ExecTime = exec
	res.BarrierTime = wc.Barrier * float64(levels)
	res.OverheadTime = float64(n)*wc.IterOverhead + res.BarrierTime + wc.Claim*float64(claims)
	res.TPar = res.PreTime + res.ExecTime + res.PostTime
	if exec > 0 {
		// Every worker's busy time is at most exec, so a zero exec leaves
		// every fraction zero.
		for w := range busy {
			busy[w] /= exec
		}
	}
	res.ProcBusy = busy
	finishResult(&res)
	return res, nil
}

// replayGraph runs replayLevels over g's wavefront levels, with the
// processors clamped to the widest level exactly as the live executors clamp
// their schedules, and adds the graph's critical path under the per-iteration
// cost the replay charged. newLevel builds the model's levelFunc for the
// decomposition and the clamped processor count. cfg.Order must be nil — a
// wavefront derives its own level order — and cfg.ReadPreds and SkipChecks
// are ignored: the models have no flags and no waits.
func replayGraph(g *depgraph.Graph, cfg Config, cm CostModel, wc WavefrontCosts, newLevel func(ls *depgraph.LevelSet, workers int) levelFunc) (Result, error) {
	if cfg.Order != nil {
		return Result{}, fmt.Errorf("machine: the wavefront model derives its own level order and cannot honor Config.Order")
	}
	ls := g.LevelsInto(nil)
	workers := min(cfg.Processors, ls.MaxWidth())
	if workers < 1 {
		workers = 1
	}
	res, err := replayLevels(g.N, ls.Count(), workers, cfg, cm, wc, newLevel(ls, workers))
	if err != nil {
		return Result{}, err
	}
	iterOverhead := wc.IterOverhead
	if cfg.SkipOverheads {
		iterOverhead = 0
	}
	res.CriticalPath, _ = g.CriticalPath(func(i int) float64 { return cm.IterWork(i) + iterOverhead })
	return res, nil
}

// SimulateWavefront simulates the pre-scheduled wavefront execution of the
// dependency graph: the graph is decomposed into wavefront levels, the levels
// are distributed over min(Processors, widest level) workers under cfg.Policy,
// and the elapsed executor time is the sum over levels of the slowest
// worker's work plus one barrier per level (see replayLevels for the phases
// and replayGraph for the Config restrictions). Set cfg.SkipInspector to
// model the warm run whose plan comes from the schedule cache.
func SimulateWavefront(g *depgraph.Graph, cfg Config, cm CostModel, wc WavefrontCosts) (Result, error) {
	return replayGraph(g, cfg, cm, wc, func(ls *depgraph.LevelSet, workers int) levelFunc {
		return staticLevels(sched.NewLevelSchedule(ls.Members, ls.Off, cfg.Policy, workers), cm)
	})
}

// SimulateLevelSchedule replays a concrete level schedule under the wavefront
// execution model: each level's elapsed time is the maximum over workers of
// the sum of their assigned iterations' cost (useful work plus
// wc.IterOverhead), and every level is followed by one barrier. The schedule
// is taken as given, so Result.CriticalPath is left zero (the schedule alone
// does not carry the dependency graph); SimulateWavefront adds the worker
// clamp and the critical path.
func SimulateLevelSchedule(s *sched.LevelSchedule, cfg Config, cm CostModel, wc WavefrontCosts) (Result, error) {
	return replayLevels(s.N(), s.Levels(), s.Workers(), cfg, cm, wc, staticLevels(s, cm))
}

// staticLevels is the static model's levelFunc: every worker runs its
// assigned items of the level back to back.
func staticLevels(s *sched.LevelSchedule, cm CostModel) levelFunc {
	return func(l int, wc WavefrontCosts, busy []float64) (float64, int) {
		levelMax := 0.0
		for w := range busy {
			tw := 0.0
			for _, it := range s.Items(l, w) {
				tw += cm.IterWork(int(it)) + wc.IterOverhead
			}
			busy[w] += tw
			if tw > levelMax {
				levelMax = tw
			}
		}
		return levelMax, 0
	}
}

// SimulateDynamicWavefront simulates the dynamic within-level wavefront
// execution of the dependency graph: the same level decomposition and
// processor clamp as SimulateWavefront, but inside each level the processors
// self-schedule chunks of the level's member list by greedy list scheduling
// — each successive chunk is claimed by the earliest-free processor, which
// first pays wc.Claim for the claim itself and then executes the chunk's
// iterations (work plus wc.IterOverhead each). When the list is exhausted
// every processor pays one more wc.Claim, the failed claim with which the
// live executor's claim loop discovers the level is empty; the level's
// elapsed time is the latest processor finish, followed by one barrier. The
// chunk is wc.Chunk (sched.DefaultChunk when zero), clamped per level by
// sched.LevelChunk as the live executor clamps it.
//
// This replays the live dynamic executor's cost structure faithfully enough
// to locate the static/dynamic crossover: with uniform per-iteration costs
// the greedy assignment degenerates to the static one and the claim traffic
// is pure loss, while heavy-tailed within-level costs leave the static
// schedule waiting on whichever processor drew the hot member — idle time
// the greedy claims reclaim.
func SimulateDynamicWavefront(g *depgraph.Graph, cfg Config, cm CostModel, wc WavefrontCosts) (Result, error) {
	chunk := wc.Chunk
	if chunk < 1 {
		chunk = sched.DefaultChunk
	}
	return replayGraph(g, cfg, cm, wc, func(ls *depgraph.LevelSet, workers int) levelFunc {
		clocks := make([]float64, workers)
		return func(l int, wc WavefrontCosts, busy []float64) (float64, int) {
			members := ls.LevelMembers(l)
			levelChunk := sched.LevelChunk(chunk, len(members), workers)
			for w := range clocks {
				clocks[w] = 0
			}
			claims := 0
			for idx := 0; idx < len(members); idx += levelChunk {
				w := 0
				for v := 1; v < workers; v++ {
					if clocks[v] < clocks[w] {
						w = v
					}
				}
				end := min(idx+levelChunk, len(members))
				clocks[w] += wc.Claim
				claims++
				for _, it := range members[idx:end] {
					clocks[w] += cm.IterWork(int(it)) + wc.IterOverhead
				}
			}
			levelMax := 0.0
			for w := range clocks {
				// The failed claim that ends each processor's level.
				clocks[w] += wc.Claim
				claims++
				busy[w] += clocks[w]
				if clocks[w] > levelMax {
					levelMax = clocks[w]
				}
			}
			return levelMax, claims
		}
	})
}
