package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"doacross/internal/depgraph"
	"doacross/internal/sched"
	"doacross/internal/tune"
)

// ExecutorKind selects the execution strategy of a Runtime: how the loop's
// run-time dependencies are enforced during the executor phase. It is the
// paper's central comparison made pluggable — the busy-wait doacross of
// Section 2 against the pre-scheduled wavefront (level-set) execution its
// inspector enables.
type ExecutorKind int

const (
	// ExecDoacross is the paper's preprocessed doacross: iterations start in
	// schedule order and every read of an element produced by an earlier
	// iteration waits on that element's ready flag. It pipelines across
	// wavefronts (an iteration may start as soon as its own inputs are ready)
	// at the cost of per-read flag checks and busy waits.
	ExecDoacross ExecutorKind = iota
	// ExecWavefront pre-schedules execution: the inspector builds the true
	// dependency graph, decomposes it into wavefront levels, and each level
	// runs as a barrier-separated doall over a level-sorted static schedule.
	// There are no per-element flags and no busy waits; reads classified as
	// true dependencies are guaranteed satisfied by the preceding level
	// barrier. The decomposition and schedule are cached across runs, keyed
	// by the loop's access pattern, so repeated solves pay the inspection
	// once. Requires natural order (no Options.Order) and a Loop.Reads that
	// covers every element the body may Load — the level placement is
	// derived from it, so an under-declared read silently breaks the
	// pre-scheduled execution (see the Loop.Reads contract).
	ExecWavefront
	// ExecAuto inspects the loop once (through the same cache ExecWavefront
	// uses) and picks the strategy with a calibrated cost model: the
	// inspection statistics (edges, levels, schedule rounds, within-level
	// read imbalance, claim counts) are combined with measured barrier,
	// flag-check and chunk-claim costs (AutoCosts — supplied through
	// Options.AutoCosts or self-calibrated once per Runtime) to estimate all
	// three executors' times, and the cheapest one runs. Loops without
	// Reads, or with an explicit Options.Order, fall back to the doacross.
	ExecAuto
	// ExecWavefrontDynamic is the wavefront execution with dynamic
	// within-level assignment: the same cached decomposition as
	// ExecWavefront, but inside each level the workers self-schedule chunks
	// out of the level's member list instead of executing a static
	// schedule. The claim traffic costs one contended atomic per chunk; in
	// exchange, per-iteration cost variance within a level (one hot row in
	// an otherwise cheap wavefront) no longer parks every other worker at
	// the barrier behind the unlucky static assignment. Same structural
	// requirements as ExecWavefront (Loop.Reads, natural order).
	ExecWavefrontDynamic
)

// String returns the executor's name as used in reports.
func (k ExecutorKind) String() string {
	switch k {
	case ExecDoacross:
		return "doacross"
	case ExecWavefront:
		return "wavefront"
	case ExecAuto:
		return "auto"
	case ExecWavefrontDynamic:
		return "wavefront-dynamic"
	default:
		return "unknown"
	}
}

// executor is the pluggable execution-strategy layer of the runtime. An
// executor owns the fused inspect → execute → postprocess pipeline of one
// run: it consumes a validated loop, updates y exactly as the sequential
// loop would, fills the report's phase times, and routes all failures
// through the runtime's armed abort state (never a returned error — the
// runtime reads ab.firstErr after execute returns). Executors may assume
// checkRunArgs passed, the abort state is armed, and rt.counters is theirs
// to reset and fill.
type executor interface {
	name() string
	execute(l *Loop, y []float64, rep *Report)
}

// executorFor resolves the configured executor kind against the loop: it is
// where ExecAuto inspects and decides, and where a strategy's structural
// requirements (Reads for the wavefront, natural order) are enforced. For an
// ExecAuto decision the report's AutoCosts and predicted times are filled so
// the caller can see what the selection compared. nrhs is the number of
// right-hand-side columns the traversal will carry (1 for scalar runs,
// the block width for RunMulti): an Auto decision prices the per-iteration
// work by it, so the pick can flip between a scalar run and a wide block of
// the same loop (see AutoCosts.PredictN).
func (rt *Runtime) executorFor(l *Loop, rep *Report, nrhs int) (executor, error) {
	if rt.tuneObs.ps != nil {
		// A previous run resolved a tuned decision but never completed (an
		// abort, a cancellation): its observation is stale, not a
		// measurement. Discarding it here keeps the off-path cost at one nil
		// test.
		rt.tuneObs = pendingObservation{}
	}
	switch rt.opts.Executor {
	case ExecDoacross:
		return doacrossExecutor{rt}, nil
	case ExecWavefront, ExecWavefrontDynamic:
		if l.Reads == nil {
			return nil, fmt.Errorf("core: the %s executor requires Loop.Reads to build the dependency graph", rt.opts.Executor)
		}
		if rt.opts.Order != nil {
			return nil, fmt.Errorf("core: the %s executor derives its own level order and cannot honor Options.Order", rt.opts.Executor)
		}
		plan, cached, err := rt.wavefrontPlan(l)
		if err != nil {
			return nil, err
		}
		return rt.wavefront(rt.opts.Executor, plan, cached), nil
	case ExecAuto:
		if l.Reads == nil || rt.opts.Order != nil {
			return doacrossExecutor{rt}, nil
		}
		plan, cached, err := rt.wavefrontPlan(l)
		if err != nil {
			return nil, err
		}
		var pick ExecutorKind
		if rt.tuningActive() && plan.stats.Levels > 1 {
			// The tuned path: the plan's bandit decides from measured
			// moving averages where it has them and the tuned model where
			// it does not, and the decision is armed for post-run feedback.
			// Single-level loops keep the static pre-schedule below — there
			// is no decision to learn.
			base := rt.tunerBase()
			ps := rt.tuner.planState(plan.fp, base)
			arm, explored := ps.Decide(plan.stats, rt.opts.Workers, nrhs, rt.tuner.opts, rt.tuner.rng)
			pick = kindOfTuneExec(arm)
			rt.tuneObs = pendingObservation{ps: ps, stats: plan.stats, exec: arm, nrhs: nrhs, explored: explored}
			if rep != nil {
				rep.AutoCosts = base
				rep.TunedCosts = ps.Coeffs
				rep.Explored = explored
				rep.PredictedDoacrossNs, rep.PredictedWavefrontNs, rep.PredictedDynamicNs =
					ps.Coeffs.PredictN(plan.stats, rt.opts.Workers, nrhs)
			}
		} else {
			costs := rt.autoCostsFor()
			arm, tda, twf, tdyn := costs.Choose(plan.stats, rt.opts.Workers, nrhs)
			pick = kindOfTuneExec(arm)
			if rep != nil {
				rep.AutoCosts = costs
				rep.PredictedDoacrossNs, rep.PredictedWavefrontNs, rep.PredictedDynamicNs = tda, twf, tdyn
			}
		}
		if pick == ExecDoacross {
			return doacrossExecutor{rt}, nil
		}
		return rt.wavefront(pick, plan, cached), nil
	default:
		return nil, fmt.Errorf("core: unknown executor kind %d", int(rt.opts.Executor))
	}
}

// InspectStats describes what the inspector learned about a loop's
// dependency structure: the wavefront decomposition the pre-scheduled
// executor would run, and the summary numbers the Auto selection consults.
// It is the cost model's input type, defined in package tune; see tune.Stats.
type InspectStats = tune.Stats

// wavefrontPlan is everything the wavefront executor needs to run one loop
// shape: the dense writer index (the execution-time dependency
// classifier), the plan's own copy of the wavefront decomposition, and the
// inspection statistics. The decomposition and stats are immutable once
// built; the static schedule is materialized lazily (see staticSchedule),
// under the same run mutex that guards every other plan access.
type wavefrontPlan struct {
	n, data int
	writer  []int32 // writer[e] = iteration writing element e, -1 if none
	// graph is the retained dependency DAG the decomposition was derived
	// from. RepairPlans edits it in place (ApplyEdits + RepairLevelsInto) so
	// a few changed rows never force a cold rebuild; it costs O(edges) memory
	// per cached plan, the price of repairability.
	graph *depgraph.Graph
	// levels is the plan's owned copy of the wavefront decomposition in CSR
	// form (the inspector's scratch LevelSet is reused across builds, so the
	// plan cannot alias it). Dynamic within-level claiming reads its
	// per-level member lists directly; the static schedule below is derived
	// from it on first static use. RepairPlans patches it in place.
	levels depgraph.LevelSet
	// workers is the schedule worker count: the runtime's workers clamped to
	// the widest level (extra workers would only spin at the barriers).
	workers int
	// static is the level-sorted static schedule, built by staticSchedule on
	// the first static-wavefront run. A runtime that only ever claims
	// dynamically never materializes it.
	static *sched.LevelSchedule
	// staticFrom, when >= 0, marks the materialized static schedule stale
	// from that level on: a repair moved members at or above it, and the next
	// staticSchedule call patches just the suffix. -1 means in sync.
	staticFrom int
	// imb caches the per-level read imbalance behind stats.ReadImbalance so a
	// repair can recompute only the perturbed levels; nil when the schedule
	// worker count is 1 (imbalance is identically zero).
	imb   []float64
	stats InspectStats
	// hash is the structural-hash cache key the plan is stored under, zero
	// when it is not in the hash tier. A repair zeroes it after evicting the
	// stale entry: the mutated pattern no longer matches the stored digest,
	// and rehashing would cost the closure sweep repair exists to avoid — so
	// a repaired plan stays reachable only through the pointer memo.
	hash uint64
	// fp is the plan's tuning fingerprint: the structural hash it was built
	// under, never zeroed — unlike hash it survives RepairPlans, so the
	// online tuner's per-plan calibration follows a repaired plan across
	// edits (the measured feedback then absorbs whatever the edit changed,
	// which is exactly the drift the tuner exists to correct).
	fp uint64
	// gen is the runtime's plan generation at build time; InvalidatePlans
	// advances the generation, making every earlier plan stale.
	gen uint64
}

// staticSchedule returns the plan's level-sorted static schedule, deriving it
// from the decomposition on first use and re-syncing a repair-dirtied suffix
// lazily. Callers hold the runtime's run mutex (plans are only touched by the
// serialized entry points), so neither lazy step needs further
// synchronization.
func (p *wavefrontPlan) staticSchedule(policy sched.Policy) *sched.LevelSchedule {
	if p.static == nil {
		p.static = sched.NewLevelSchedule(p.levels.Members, p.levels.Off, policy, p.workers)
	} else if p.staticFrom >= 0 {
		p.static.PatchSuffix(p.levels.Members, p.levels.Off, p.staticFrom)
	}
	p.staticFrom = -1
	return p.static
}

// maxCachedPlans bounds the runtime's schedule cache. A runtime is typically
// bound to one loop shape (a Solver) or a handful (an ILU pair, a sweep);
// when the cap is hit the cache is dropped wholesale rather than tracking
// recency — rebuilding a plan is exactly one cold inspection.
const maxCachedPlans = 16

// wavefrontPlan returns the cached plan for the loop's access pattern,
// building (and caching) it on a miss. The second result reports a cache
// hit.
//
// Lookup is two-tier. Runs that reuse the same *Loop value (the Solver /
// Krylov hot path) hit a pointer-identity memo and skip even the hash.
// Otherwise the loop's access pattern is hashed structurally, so a
// reconstructed Loop with the same pattern (a fresh solver on the same
// matrix) still reuses the decomposition. Both tiers assume a Loop's access
// pattern is stable for the lifetime of the Loop value — the premise of the
// paper's reusable preprocessing; a loop whose Writes/Reads change must be a
// fresh *Loop.
func (rt *Runtime) wavefrontPlan(l *Loop) (p *wavefrontPlan, cached bool, err error) {
	// The caller's Writes/Reads closures run both here (accessHash, on this
	// goroutine) and in buildPlan (on pool workers, which recover per
	// shard); recovering here turns a broken closure into the same
	// descriptive error the doacross inspector shard reports, instead of a
	// process crash.
	defer func() {
		if r := recover(); r != nil {
			p, cached, err = nil, false, fmt.Errorf("core: wavefront inspector panicked: %v", r)
		}
	}()
	if rt.planMemoLoop == l && rt.planMemo != nil && rt.planMemo.gen == rt.planGen {
		rt.recordPlan(PlanHit)
		return rt.planMemo, true, nil
	}
	h := accessHash(l)
	if p, ok := rt.planCache[h]; ok && p.n == l.N && p.data == l.Data && p.gen == rt.planGen {
		rt.planMemoLoop, rt.planMemo = l, p
		rt.recordPlan(PlanHit)
		return p, true, nil
	}
	p, err = rt.buildPlan(l)
	if err != nil {
		return nil, false, err
	}
	if rt.planCache == nil {
		rt.planCache = make(map[uint64]*wavefrontPlan)
	} else if len(rt.planCache) >= maxCachedPlans {
		clear(rt.planCache)
	}
	p.hash = h
	p.fp = h
	rt.planCache[h] = p
	rt.planMemoLoop, rt.planMemo = l, p
	rt.recordPlan(PlanMiss)
	return p, false, nil
}

// buildPlan is the cold wavefront inspection: fill the writer index, build
// the dependency graph, decompose it into levels and materialize the
// level-sorted static schedule. The index fill and the graph's predecessor
// scans run over the worker pool, so the inspector cost shrinks with
// workers; the level sweep itself is the O(N + edges) forward pass of
// depgraph.LevelsInto into a reused scratch buffer.
//
// All shards that call the user's Writes/Reads closures run through a
// per-iteration recover, so a panicking closure (or an out-of-range write
// index) surfaces as an error from the run, matching the doacross
// inspector's guard, rather than killing a pool worker.
func (rt *Runtime) buildPlan(l *Loop) (*wavefrontPlan, error) {
	var failMu sync.Mutex
	var failErr error
	fail := func(r any) {
		failMu.Lock()
		if failErr == nil {
			failErr = fmt.Errorf("core: wavefront inspector panicked: %v", r)
		}
		failMu.Unlock()
	}
	guardedFor := func(n int, body func(i int)) {
		rt.pool.ParallelFor(n, func(i int) {
			defer func() {
				if r := recover(); r != nil {
					fail(r)
				}
			}()
			body(i)
		})
	}
	writer := make([]int32, l.Data)
	rt.pool.ParallelFor(l.Data, func(e int) { writer[e] = -1 })
	guardedFor(l.N, func(i int) {
		for _, e := range l.Writes(i) {
			writer[e] = int32(i)
		}
	})
	if failErr != nil {
		return nil, failErr
	}
	g := depgraph.BuildParallelFromWriterIndex(l.N, writer, l.Reads, guardedFor)
	if failErr != nil {
		return nil, failErr
	}
	ls := g.LevelsInto(&rt.levelScratch)

	stats := InspectStats{
		Iterations:  l.N,
		Edges:       g.Edges,
		StallWeight: g.StallWeight(rt.opts.Workers),
	}
	p := rt.levelStats(&stats, ls)
	imb := levelImbalances(g, ls, rt.opts.Policy, p)
	for _, v := range imb {
		stats.ReadImbalance += v
	}
	return &wavefrontPlan{
		n:      l.N,
		data:   l.Data,
		writer: writer,
		graph:  g,
		levels: depgraph.LevelSet{
			Level:   append([]int32(nil), ls.Level[:l.N]...),
			Members: append([]int32(nil), ls.Members...),
			Off:     append([]int32(nil), ls.Off...),
		},
		workers:    p,
		staticFrom: -1,
		imb:        imb,
		stats:      stats,
		gen:        rt.planGen,
	}, nil
}

// levelImbalances computes the per-level values behind
// InspectStats.ReadImbalance: how many extra true-dependency read terms the
// static level schedule's slowest worker executes beyond a perfectly balanced
// within-level split (sched.LevelImbalance per level, replaying the exact
// NewLevelSchedule assignment). In-degree stands in for an iteration's read
// count, the work proxy the inspector can see without pricing the body. Nil
// when p <= 1 — a single worker has nothing to imbalance.
func levelImbalances(g *depgraph.Graph, ls *depgraph.LevelSet, policy sched.Policy, p int) []float64 {
	if p <= 1 {
		return nil
	}
	imb := make([]float64, ls.Count())
	for l := range imb {
		imb[l] = levelImbalanceAt(g, ls, policy, p, l)
	}
	return imb
}

// levelImbalanceAt computes one level's read imbalance (see levelImbalances).
func levelImbalanceAt(g *depgraph.Graph, ls *depgraph.LevelSet, policy sched.Policy, p, l int) float64 {
	lvl := ls.LevelMembers(l)
	return float64(sched.LevelImbalance(len(lvl), policy, p, func(k int) int {
		return len(g.Preds[int(lvl[k])])
	}))
}

// accessHash computes a structural 64-bit FNV-1a-style hash of the loop's
// access pattern (sizes, writes and reads of every iteration, with length
// separators). Loops with equal hashes and equal (N, Data) are assumed to
// have identical access patterns; with a 64-bit digest over the handful of
// shapes one runtime sees, an accidental collision is vanishingly unlikely.
func accessHash(l *Loop) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	mix(uint64(l.N))
	mix(uint64(l.Data))
	for i := 0; i < l.N; i++ {
		ws := l.Writes(i)
		mix(^uint64(len(ws)))
		for _, e := range ws {
			mix(uint64(e))
		}
		rs := l.Reads(i)
		mix(^uint64(len(rs)))
		for _, e := range rs {
			mix(uint64(e))
		}
	}
	return h
}

// doacrossExecutor is the paper's flag-based busy-wait doacross behind the
// executor interface: a fused pool submission running the inspector shard,
// the transformed loop and the postprocessing resets with phase barriers in
// between (Figures 3 and 5 of the paper).
type doacrossExecutor struct{ rt *Runtime }

func (doacrossExecutor) name() string { return "doacross" }

func (e doacrossExecutor) execute(l *Loop, y []float64, rep *Report) {
	rt := e.rt
	// Wake no more workers than there are iterations: with fewer positions
	// than workers, the surplus would only rendezvous at the phase barriers
	// for zero work (the pre-pool phases applied the same clamp).
	k := rt.opts.Workers
	if k > l.N {
		k = l.N
	}
	if k < 1 {
		k = 1
	}
	body := rt.execBody(l, y, depCheck{iter: rt.iter, ready: rt.ready})

	dynamic := rt.opts.Policy == sched.Dynamic
	chunk := rt.chunk()
	var next atomic.Int64
	var s *sched.LevelSchedule
	if !dynamic {
		s = rt.schedule(l.N)
	}

	useEpoch := rt.opts.UseEpochTables
	ab := &rt.ab
	stop := func() bool { return ab.triggered.Load() }
	bar := phaseBarrier{n: int32(k)}
	var preEnd, execEnd time.Duration
	start := time.Now()
	rt.pool.Submit(k, func(w int) {
		// Inspector shard (Figure 3, left): fully parallel, block-distributed.
		lo, hi := sched.BlockRange(l.N, k, w)
		rt.guard("loop Writes (inspector)", func() {
			for i := lo; i < hi; i++ {
				for _, e := range l.Writes(i) {
					rt.iter.Record(e, i)
				}
			}
		})
		bar.wait(func() { preEnd = time.Since(start) })

		// Executor shard: the transformed loop of Figure 5.
		rt.guard("loop body", func() {
			if dynamic {
				sched.DynamicLoop(&next, l.N, chunk, w, body, stop)
			} else {
				for _, pos := range s.Items(0, w) {
					body(w, int(pos))
				}
			}
		})
		bar.wait(func() { execEnd = time.Since(start) })

		// Postprocessor shard (Figure 3, right): copy back and reset. An
		// aborted run resets the scratch state (so the runtime stays
		// reusable) but skips the copy-back: skipped iterations never
		// seeded ynew, so copying would publish stale values into y.
		aborted := ab.triggered.Load()
		rt.guard("loop Writes (postprocessor)", func() {
			for i := lo; i < hi; i++ {
				for _, e := range l.Writes(i) {
					if !aborted {
						y[e] = rt.ynew[e]
					}
					if !useEpoch {
						rt.iter.Reset(e)
						rt.ready.Clear(e)
					}
				}
			}
		})
	})
	if useEpoch {
		rt.iter.Advance()
		rt.ready.Advance()
	}
	total := time.Since(start)

	rep.PreTime = preEnd
	rep.ExecTime = execEnd - preEnd
	rep.PostTime = total - execEnd
	rep.TotalTime = total
}

// wavefrontExecutor is the pre-scheduled level-set execution the paper
// compares the doacross against: the (cached) inspection decomposes the loop
// into wavefronts, and one fused pool submission runs each level as a doall
// with a barrier between levels, then the postprocessing copy-back. No
// per-element flags exist and no read ever waits; the renaming through ynew
// still satisfies anti-dependencies, and because the plan's writer index
// doubles as the dependency classifier, a warm run touches no scratch tables
// at all (nothing to reset).
//
// Within a level, members are handed out one of two ways. With a static
// schedule (ExecWavefront) each worker runs the items the plan's
// level-sorted LevelSchedule dealt it. Without one (ExecWavefrontDynamic)
// workers claim chunks of the level's member list through a shared counter —
// the sched.DynamicLoop protocol restricted to one level, at the
// sched.LevelChunk clamp InspectStats.DynamicClaims prices — trading one
// contended atomic per chunk for within-level load balance: a level whose
// members have heavy-tailed costs no longer serializes behind whichever
// worker the static schedule dealt the hot member to.
//
// The plan is resolved by executorFor (so its cost — cold build or cache
// lookup — is the run's reported preprocessing time, and the cached flag
// reflects that resolution, not a second lookup).
type wavefrontExecutor struct {
	rt     *Runtime
	plan   *wavefrontPlan
	cached bool
	// static is the plan's level-sorted schedule; nil selects dynamic
	// within-level claiming.
	static *sched.LevelSchedule
}

// wavefront builds the wavefront executor for kind, ExecWavefront or
// ExecWavefrontDynamic. The static schedule is materialized here, while the
// plan is being resolved, so its cost counts as preprocessing; a dynamic
// executor never materializes it and consumes the plan's LevelSet directly.
func (rt *Runtime) wavefront(kind ExecutorKind, plan *wavefrontPlan, cached bool) wavefrontExecutor {
	e := wavefrontExecutor{rt: rt, plan: plan, cached: cached}
	if kind == ExecWavefront {
		e.static = plan.staticSchedule(rt.opts.Policy)
	}
	return e
}

func (e wavefrontExecutor) name() string {
	if e.static == nil {
		return ExecWavefrontDynamic.String()
	}
	return ExecWavefront.String()
}

func (e wavefrontExecutor) execute(l *Loop, y []float64, rep *Report) {
	rt := e.rt
	plan := e.plan
	static := e.static
	start := time.Now()
	rep.InspectCached = e.cached
	levels := plan.levels.Count()
	rep.Levels = levels

	// The level barrier guarantees every true dependency was produced in an
	// earlier, completed level, so the check has no ready flags to wait on.
	body := rt.execBody(l, y, depCheck{writer: plan.writer})

	chunk := rt.chunk()
	k := plan.workers
	ab := &rt.ab
	bar := phaseBarrier{n: int32(k)}
	var next atomic.Int64
	var execEnd time.Duration
	rt.pool.Submit(k, func(w int) {
		// The level barrier's last arriver resets the claim counter before
		// the barrier opens, so every worker observes a zeroed counter when
		// it starts claiming the next level. The closures are per worker so
		// they stay on its stack.
		resetNext := func() { next.Store(0) }
		stampExec := func() { next.Store(0); execEnd = time.Since(start) }
		stop := func() bool { return ab.triggered.Load() }
		for lvl := 0; lvl < levels; lvl++ {
			// The abort check is per level here and per iteration inside
			// body; either way every worker still reaches every barrier, so
			// an aborted run drains without deadlock.
			if !ab.triggered.Load() {
				rt.guard("loop body", func() {
					if static != nil {
						for _, it := range static.Items(lvl, w) {
							body(w, int(it))
						}
						return
					}
					members := plan.levels.LevelMembers(lvl)
					// Every worker derives the same per-level chunk clamp, so
					// no coordination is needed.
					c := sched.LevelChunk(chunk, len(members), k)
					sched.DynamicLoopOver(&next, members, c, w, body, stop)
				})
			}
			if lvl == levels-1 {
				bar.wait(stampExec)
			} else {
				bar.wait(resetNext)
			}
		}
		// Postprocessor shard: only the copy-back — the plan's writer index
		// is immutable and there are no ready flags, so nothing is reset.
		if ab.triggered.Load() {
			return
		}
		lo, hi := sched.BlockRange(l.N, k, w)
		rt.guard("loop Writes (postprocessor)", func() {
			for i := lo; i < hi; i++ {
				for _, e := range l.Writes(i) {
					y[e] = rt.ynew[e]
				}
			}
		})
	})
	total := time.Since(start)

	rep.ExecTime = execEnd
	rep.PostTime = total - execEnd
	rep.TotalTime = total
}

// guard runs one phase shard with panic recovery: a panicking user function
// (the body, or a broken Writes closure in the fully-parallel phases) aborts
// the run instead of crashing the process, and the worker proceeds to the
// next phase barrier as usual, so an abort never leaks a barrier. Recovery
// is per phase, not per shard, because a shard that skipped a barrier wait
// would deadlock the other workers.
func (rt *Runtime) guard(phase string, f func()) {
	defer func() {
		if r := recover(); r != nil {
			rt.ab.abort(fmt.Errorf("core: %s panicked: %v", phase, r))
		}
	}()
	f()
}

// armTrace prepares (or clears) the per-iteration trace for a run and
// returns the trace clock base.
func (rt *Runtime) armTrace(l *Loop) time.Time {
	if rt.opts.CollectTrace {
		rt.lastTrace = &Trace{Workers: rt.opts.Workers, Iterations: make([]IterTrace, l.N)}
		return time.Now()
	}
	rt.lastTrace = nil
	return time.Time{}
}
