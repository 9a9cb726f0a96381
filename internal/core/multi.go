package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"doacross/internal/flags"
)

// This file implements the blocked multi-RHS execution path: one traversal of
// the loop's dependency structure applies each iteration's body to a block of
// right-hand sides at once, so the fixed per-traversal overheads — level
// barriers, flag maintenance, dependency classification, chunk claims — are
// paid once per block instead of once per solve. It is the batching layer the
// serving front end (internal/serve) sits on: the dominant production shape
// is many independent solves against one fixed factor, where the plan is
// already cached and per-solve overhead is what bounds throughput.
//
// Data layout. A block of nc columns is stored element-major: the nc column
// values of element e are contiguous at [e*nc : (e+1)*nc]. An iteration's
// reads then touch one contiguous row per element — one dependency
// classification and at most one wait per element, followed by nc
// multiply-adds over adjacent memory — which is what makes the arithmetic
// intensity per synchronization grow with the block size. Blocks are capped
// at MaxRHSBlock columns; RunMulti splits wider calls into successive
// traversals and tells the body where each block starts (ColOffset).

// MaxRHSBlock is the widest column block one traversal carries. Wider RunMulti
// calls are split into successive blocks of at most this many columns: beyond
// a few dozen columns the per-element rows outgrow cache lines and the block
// buffers outgrow the cache itself, while the per-traversal overhead being
// amortized is already divided down to noise.
const MaxRHSBlock = 64

// MultiValues gives a multi-RHS loop body access to one column block of the
// shared data with the same execution-time dependency checks as Values. The
// dependency structure is per element, not per column — all columns of one
// element are produced by the same iteration — so one LoadRow performs one
// classification and at most one wait, and returns the whole row of column
// values the sequential loop would have observed. A MultiValues is specific to
// one iteration of one run and must not be retained after the body returns;
// the row slices it returns alias the runtime's block buffers and share that
// lifetime.
type MultiValues struct {
	iter     writerTable
	ready    readyWaiter
	old      []float64 // element-major block: (e, c) at [e*nc + c]
	new      []float64
	nc       int
	colBase  int
	i        int
	strategy flags.WaitStrategy
	cancel   *atomic.Bool
	failErr  error
	rec      *accessRecorder
	// counters, as in Values
	waits      int
	truedeps   int
	selfdeps   int
	antiOrNone int
}

func (v *MultiValues) reset(t writerTable, r readyWaiter, old, new []float64, nc, colBase, i int, s flags.WaitStrategy, cancel *atomic.Bool) {
	v.iter = t
	v.ready = r
	v.old = old
	v.new = new
	v.nc = nc
	v.colBase = colBase
	v.i = i
	v.strategy = s
	v.cancel = cancel
	v.failErr = nil
	v.rec = nil
	v.waits = 0
	v.truedeps = 0
	v.selfdeps = 0
	v.antiOrNone = 0
}

// Iteration returns the original index of the iteration the body is executing.
func (v *MultiValues) Iteration() int { return v.i }

// Cols returns the number of columns in the active block — the length of every
// row slice the accessors return. It is at most MaxRHSBlock, and smaller than
// the RunMulti call's total column count when the call was split into blocks.
func (v *MultiValues) Cols() int { return v.nc }

// ColOffset returns the index of the block's first column within the ys slice
// the RunMulti call received. Bodies that index per-column state captured from
// outside the loop (a right-hand side per column) use ColOffset()+c for the
// block-local column c; bodies whose state all flows through the shared array
// can ignore it.
func (v *MultiValues) ColOffset() int { return v.colBase }

// LoadRow returns the row of element e — its value in every column of the
// block — as the original sequential loop would have observed it at this
// iteration: the newly computed row when e is written by an earlier iteration
// (after waiting for it) or by this one, the old row otherwise. It is the
// multi-RHS counterpart of Values.Load, performing one classification and at
// most one wait for the whole row. The returned slice is read-only and valid
// only until the body returns.
func (v *MultiValues) LoadRow(e int) []float64 {
	if v.rec != nil {
		v.rec.noteLoad(e)
	}
	dep, _ := v.iter.Classify(e, v.i)
	switch dep {
	case flags.TrueDep:
		v.truedeps++
		polls, ok := v.ready.WaitFor(e, v.strategy, v.cancel)
		v.waits += polls
		if !ok {
			return v.old[e*v.nc : (e+1)*v.nc]
		}
		return v.new[e*v.nc : (e+1)*v.nc]
	case flags.SelfDep:
		v.selfdeps++
		return v.new[e*v.nc : (e+1)*v.nc]
	default:
		v.antiOrNone++
		return v.old[e*v.nc : (e+1)*v.nc]
	}
}

// Load returns the value of element e in block-local column c. It is a
// convenience wrapper over LoadRow and repeats the classification per call;
// bodies looping over columns should hoist the LoadRow instead.
func (v *MultiValues) Load(e, c int) float64 { return v.LoadRow(e)[c] }

// Row returns the writable new row of element e, seeded with the old row when
// the body starts (so read-modify-write accumulation observes the sequential
// loop's pre-iteration values). The element must be one of the iteration's
// declared write targets; the row becomes visible to other iterations only
// after the body returns. It is the multi-RHS counterpart of Values.Store and
// Values.LoadNew together.
func (v *MultiValues) Row(e int) []float64 {
	if v.rec != nil {
		v.rec.noteStore(e)
	}
	return v.new[e*v.nc : (e+1)*v.nc]
}

// Store writes the value of element e in block-local column c; a convenience
// wrapper over Row.
func (v *MultiValues) Store(e, c int, x float64) {
	v.Row(e)[c] = x
}

// LoadOldRow returns the row element e had before the loop started, with no
// dependency check — the multi-RHS LoadOld. The returned slice is read-only.
func (v *MultiValues) LoadOldRow(e int) []float64 { return v.old[e*v.nc : (e+1)*v.nc] }

// Waits reports how many polling steps this iteration spent waiting on
// unsatisfied true dependencies.
func (v *MultiValues) Waits() int { return v.waits }

// Fail marks this iteration — and therefore the whole run — as failed, exactly
// as Values.Fail does. A nil err is ignored.
func (v *MultiValues) Fail(err error) {
	if err != nil && v.failErr == nil {
		v.failErr = err
	}
}

// accessViolation mirrors Values.accessViolation for the multi path.
func (v *MultiValues) accessViolation() error {
	if v.rec == nil || v.rec.violation == nil {
		return nil
	}
	return v.rec.violation
}

// armAccessCheckMulti attaches worker's recorder to v for iteration i when the
// declared-access sanitizer is on, exactly as armAccessCheck does for the
// scalar path.
func (rt *Runtime) armAccessCheckMulti(v *MultiValues, l *Loop, worker, i int, writes []int) {
	if rt.recs == nil {
		return
	}
	r := &rt.recs[worker]
	var reads []int
	if l.Reads != nil {
		reads = l.Reads(i)
	}
	r.begin(i, writes, reads, l.Reads != nil)
	v.rec = r
}

// multiRun is the runtime's armed multi-RHS block state. A zero nc means the
// run is scalar; executors consult it through execBody, which swaps in the
// multi body when a block is armed.
type multiRun struct {
	nc      int
	colBase int
}

// checkRunMultiArgs validates a RunMulti call up front, mirroring
// checkRunArgs: a short column (or a loop without a multi body) yields a
// descriptive error instead of an index panic inside a worker goroutine.
func (rt *Runtime) checkRunMultiArgs(l *Loop, ys [][]float64) error {
	if l.Data > rt.dataLen {
		return fmt.Errorf("core: loop data length %d exceeds runtime capacity %d", l.Data, rt.dataLen)
	}
	if len(ys) == 0 {
		return fmt.Errorf("core: RunMulti requires at least one right-hand side column")
	}
	for c, y := range ys {
		if len(y) < l.Data {
			return fmt.Errorf("core: column %d has length %d, shorter than loop data length %d", c, len(y), l.Data)
		}
	}
	if l.BodyMulti == nil {
		return fmt.Errorf("core: RunMulti requires Loop.BodyMulti")
	}
	return nil
}

// RunMulti executes the full preprocessed doacross once per column block,
// applying each iteration's body to all columns of ys in one traversal of the
// loop's dependency structure: ys[c] is updated in place exactly as a
// sequential execution of the loop over that column alone would have. Columns
// are processed in blocks of at most MaxRHSBlock (the body sees the block
// through MultiValues.Cols and ColOffset); each block pays the traversal's
// fixed costs — barriers, flag maintenance, classification — once, which is
// the point: per-solve overhead amortizes by the block width.
//
// The loop must define BodyMulti (Body/BodyErr, if also set, are ignored
// here). All executors support the multi path, and the Auto selection prices
// it with the block width: the work term of every strategy scales with the
// columns while the barrier, flag and claim terms do not, so Auto's pick can
// flip between a single-RHS run and a wide block of the same loop (see
// AutoCosts.PredictN). Cancellation and failure behave as in RunContext; the
// contents of ys are unspecified after a failed run. The report aggregates the
// per-block phase times and counters, reports a plan repair the call's first
// block consumed (PlanRepaired and RepairNs, as RunContext does), and records
// the column count in NRHS.
func (rt *Runtime) RunMulti(ctx context.Context, l *Loop, ys [][]float64) (Report, error) {
	if err := rt.checkRunMultiArgs(l, ys); err != nil {
		return Report{}, err
	}
	if rt.opts.Order != nil && len(rt.opts.Order) != l.N {
		return Report{}, fmt.Errorf("core: execution order has %d entries for %d iterations", len(rt.opts.Order), l.N)
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	rt.runMu.Lock()
	defer rt.runMu.Unlock()

	rep := Report{
		Workers:     rt.opts.Workers,
		Iterations:  l.N,
		NRHS:        len(ys),
		WaitPolicy:  rt.opts.WaitStrategy.String(),
		SchedPolicy: rt.opts.Policy.String(),
	}
	if rt.opts.Order != nil {
		rep.Order = "reordered"
	} else {
		rep.Order = "natural"
	}
	callStart := time.Now()
	for base := 0; base < len(ys); base += MaxRHSBlock {
		end := base + MaxRHSBlock
		if end > len(ys) {
			end = len(ys)
		}
		blockRep, err := rt.runMultiBlock(ctx, l, ys[base:end], base)
		if err != nil {
			// A block that failed after resolving its executor counts as one
			// failed run of that executor; a failure during resolution itself
			// (blockRep.Executor empty) is not counted, matching RunContext.
			if blockRep.Executor != "" {
				rt.recordRun(blockRep.Executor, time.Since(callStart), err)
			}
			return Report{}, err
		}
		rep.PreTime += blockRep.PreTime
		rep.ExecTime += blockRep.ExecTime
		rep.PostTime += blockRep.PostTime
		rep.TotalTime += blockRep.TotalTime
		rep.TrueDeps += blockRep.TrueDeps
		rep.SelfDeps += blockRep.SelfDeps
		rep.AntiOrNone += blockRep.AntiOrNone
		rep.WaitPolls += blockRep.WaitPolls
		rep.Executor = blockRep.Executor
		rep.Levels = blockRep.Levels
		rep.InspectCached = blockRep.InspectCached
		rep.AutoCosts = blockRep.AutoCosts
		rep.PredictedDoacrossNs = blockRep.PredictedDoacrossNs
		rep.PredictedWavefrontNs = blockRep.PredictedWavefrontNs
		rep.PredictedDynamicNs = blockRep.PredictedDynamicNs
		rep.TunedCosts = blockRep.TunedCosts
		rep.Explored = rep.Explored || blockRep.Explored
		rep.PlanRepaired = rep.PlanRepaired || blockRep.PlanRepaired
		rep.RepairNs += blockRep.RepairNs
	}
	rt.recordRun(rep.Executor, time.Since(callStart), nil)
	return rep, nil
}

// runMultiBlock runs one column block through the fused executor pipeline:
// gather the columns into the element-major block buffers, execute the loop
// with the multi body armed (the executors themselves are unchanged — their
// scalar copy-back degenerates to self-assignment on the renaming buffer),
// then scatter the written rows back to the columns. Caller holds runMu.
func (rt *Runtime) runMultiBlock(ctx context.Context, l *Loop, ys [][]float64, colBase int) (Report, error) {
	rep := Report{Workers: rt.opts.Workers, Iterations: l.N, NRHS: len(ys)}
	selStart := time.Now()
	ex, err := rt.executorFor(l, &rep, len(ys))
	if err != nil {
		return Report{}, err
	}
	selTime := time.Since(selStart)
	rep.Executor = ex.name()
	rt.stampRepair(l, &rep)
	if err := ctx.Err(); err != nil {
		// Cancelled before anything executed: like RunContext's pre-execution
		// check, not counted as a run (Executor stays empty in the report).
		return Report{}, err
	}

	gatherStart := time.Now()
	rt.armMulti(l, ys, colBase)
	gatherTime := time.Since(gatherStart)

	stopWatch := rt.watchContext(ctx)
	// The scalar y the executor sees is the renaming buffer itself: the multi
	// body never touches it, and the executors' postprocess copy-back becomes
	// a self-assignment, so the scalar executors run the multi block without
	// a multi-specific variant of their own.
	ex.execute(l, rt.ynew, &rep)
	stopWatch()
	runErr := rt.ab.firstErr()
	if runErr == nil {
		postStart := time.Now()
		rt.scatterMulti(l, ys)
		d := time.Since(postStart)
		rep.PostTime += d
		rep.TotalTime += d
	}
	rt.mc = multiRun{}
	if runErr != nil {
		// The empty report still names the resolved executor so RunMulti can
		// attribute the failed call to it in the metrics sink.
		return Report{Executor: rep.Executor}, runErr
	}
	rep.PreTime += selTime + gatherTime
	rep.TotalTime += selTime + gatherTime
	rep.setCounters(sumCounters(rt.counters))
	rt.observeTuning(&rep)
	return rep, nil
}

// armMulti sizes the block buffers for l.Data rows of len(ys) columns,
// gathers the columns element-major into the old block, and arms the multi
// state consulted by execBody. Buffers are grown once and reused across
// blocks and runs.
func (rt *Runtime) armMulti(l *Loop, ys [][]float64, colBase int) {
	nc := len(ys)
	need := l.Data * nc
	if cap(rt.mold) < need {
		rt.mold = make([]float64, need)
		rt.mnew = make([]float64, need)
	}
	rt.mold = rt.mold[:need]
	rt.mnew = rt.mnew[:need]
	if rt.mvals == nil {
		rt.mvals = make([]MultiValues, rt.opts.Workers)
	}
	mold := rt.mold
	rt.pool.ParallelFor(l.Data, func(e int) {
		row := mold[e*nc : (e+1)*nc]
		for c := range ys {
			row[c] = ys[c][e]
		}
	})
	rt.mc = multiRun{nc: nc, colBase: colBase}
}

// scatterMulti copies the written rows of the new block back into the caller's
// columns — the multi path's counterpart of the postprocess copy-back.
func (rt *Runtime) scatterMulti(l *Loop, ys [][]float64) {
	nc := rt.mc.nc
	mnew := rt.mnew
	rt.pool.ParallelFor(l.N, func(i int) {
		for _, e := range l.Writes(i) {
			row := mnew[e*nc : (e+1)*nc]
			for c := range ys {
				ys[c][e] = row[c]
			}
		}
	})
}

// execBodyMulti is execBody's multi-RHS counterpart: one position of the
// transformed loop seeds the written rows, runs BodyMulti through the worker's
// reusable MultiValues against the armed block buffers, marks the written
// elements ready and accumulates the worker's counters. The executors obtain
// it transparently through execBody when a block is armed, so all of them —
// doacross, both wavefronts, and whatever Auto picks — run the multi path
// with their own scheduling and barrier structure unchanged.
func (rt *Runtime) execBodyMulti(l *Loop, tab writerTable, ready readyWaiter, traceBase time.Time) func(worker, pos int) {
	order := rt.opts.Order
	ab := &rt.ab
	nc := rt.mc.nc
	colBase := rt.mc.colBase
	mold, mnew := rt.mold, rt.mnew
	return func(worker, pos int) {
		if ab.triggered.Load() {
			return
		}
		i := pos
		if order != nil {
			i = order[pos]
		}
		var start time.Duration
		if rt.lastTrace != nil {
			start = time.Since(traceBase)
		}
		writes := l.Writes(i)
		// Seed the written rows with the old rows (the multi counterpart of
		// Figure 5's statement S2), so intra-iteration reads through Row
		// observe the pre-iteration values.
		for _, e := range writes {
			copy(mnew[e*nc:(e+1)*nc], mold[e*nc:(e+1)*nc])
		}
		mv := &rt.mvals[worker]
		mv.reset(tab, ready, mold, mnew, nc, colBase, i, rt.opts.WaitStrategy, &ab.triggered)
		rt.armAccessCheckMulti(mv, l, worker, i, writes)
		if err := rt.runMultiBody(l, i, mv); err != nil {
			ab.abort(err)
			return
		}
		if err := mv.accessViolation(); err != nil {
			ab.abort(err)
			return
		}
		for _, e := range writes {
			ready.Set(e)
		}
		c := &rt.counters[worker]
		c.trueDeps += int64(mv.truedeps)
		c.selfDeps += int64(mv.selfdeps)
		c.antiOrNone += int64(mv.antiOrNone)
		c.waitPolls += int64(mv.waits)
		if rt.lastTrace != nil {
			rt.lastTrace.Iterations[pos] = IterTrace{
				Iteration: i,
				Position:  pos,
				Worker:    worker,
				Start:     start,
				End:       time.Since(traceBase),
				WaitPolls: mv.waits,
				TrueDeps:  mv.truedeps,
			}
		}
	}
}

// runMultiBody runs one iteration's multi body and returns its failure
// (Fail record), nil on success.
func (rt *Runtime) runMultiBody(l *Loop, i int, mv *MultiValues) error {
	l.BodyMulti(i, mv)
	return mv.failErr
}

// RunSequentialMulti executes the loop's multi body column-block-sequentially,
// exactly as running the original sequential loop once per column would:
// iterations in order, all writes visible to later reads immediately. It is
// the reference RunMulti results are verified against, the multi counterpart
// of RunSequential. Columns are processed in one block (no MaxRHSBlock split),
// so the body sees Cols() == len(ys) and ColOffset() == 0.
func RunSequentialMulti(l *Loop, ys [][]float64) error {
	if len(ys) == 0 {
		return fmt.Errorf("core: RunSequentialMulti requires at least one right-hand side column")
	}
	for c, y := range ys {
		if len(y) < l.Data {
			return fmt.Errorf("core: column %d has length %d, shorter than loop data length %d", c, len(y), l.Data)
		}
	}
	if l.BodyMulti == nil {
		return fmt.Errorf("core: RunSequentialMulti requires Loop.BodyMulti")
	}
	nc := len(ys)
	buf := make([]float64, l.Data*nc)
	for e := 0; e < l.Data; e++ {
		row := buf[e*nc : (e+1)*nc]
		for c := range ys {
			row[c] = ys[c][e]
		}
	}
	v := &MultiValues{}
	for i := 0; i < l.N; i++ {
		// Old and new alias the same buffer and every read classifies as a
		// self dependence, exactly as RunSequential's seqTable arranges, so
		// LoadRow returns the current contents.
		v.reset(seqTable{}, seqReady{}, buf, buf, nc, 0, i, flags.WaitSpin, nil)
		l.BodyMulti(i, v)
		if v.failErr != nil {
			return v.failErr
		}
	}
	for e := 0; e < l.Data; e++ {
		row := buf[e*nc : (e+1)*nc]
		for c := range ys {
			ys[c][e] = row[c]
		}
	}
	return nil
}
