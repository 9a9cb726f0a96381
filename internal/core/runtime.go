package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"doacross/internal/depgraph"
	"doacross/internal/flags"
	"doacross/internal/sched"
)

// Options configures a doacross Runtime.
type Options struct {
	// Workers is the number of concurrent workers (processors). Zero means 1.
	Workers int
	// Policy selects how iterations are assigned to workers.
	Policy sched.Policy
	// Executor selects the execution strategy: the paper's flag-based
	// busy-wait doacross (the zero value), the pre-scheduled wavefront
	// execution built by the inspector, or automatic selection from the
	// inspected dependency structure. See ExecutorKind.
	Executor ExecutorKind
	// AutoCosts supplies the Auto selection's cost-model coefficients. The
	// zero value means self-calibrate: the runtime micro-times a barrier and
	// a flag check on its live pool the first time an Auto decision needs
	// them. Supplying explicit coefficients makes the selection
	// deterministic (tests, simulators, known deployment hosts).
	AutoCosts AutoCosts
	// Chunk is the chunk size used by the Dynamic policy (0 = default).
	Chunk int
	// WaitStrategy selects how true-dependency waits are performed. The
	// default (zero value) is the paper's busy wait; WaitSpinYield is
	// recommended when Workers exceeds GOMAXPROCS.
	WaitStrategy flags.WaitStrategy
	// UseEpochTables replaces the MAXINT/NOTDONE reset protocol of the
	// paper's postprocessing phase with epoch-versioned tables that reset in
	// O(1). This is a design-choice ablation; results are identical.
	UseEpochTables bool
	// Order, when non-nil, is the execution order produced by a doconsider
	// reordering: position k of the parallel loop executes original
	// iteration Order[k]. It must be a permutation of 0..N-1 that respects
	// all true dependencies (see doconsider.Validate). Nil means natural
	// order.
	Order []int
	// AccessCheck enables the declared-access sanitizer: each iteration's
	// actual Values accesses are diffed against its declared Writes/Reads
	// pattern, and the first mismatch aborts the run with an *AccessError
	// naming the iteration and the offending element. It exists to catch
	// under-declared loops before a pre-scheduled executor silently races on
	// them; leave it off in production runs (checked accessors cost a few
	// membership probes per access, unchecked ones a single nil test).
	AccessCheck bool
	// CollectTrace records a per-iteration execution trace (start/end time,
	// worker, wait polls) retrievable through Runtime.Trace after Run. It
	// adds two clock readings per iteration, so leave it off for
	// performance-sensitive runs.
	CollectTrace bool
	// Metrics, when non-nil, receives the runtime's observability events:
	// completed runs with their executor and wall time, plan-cache
	// transitions, and access-check aborts. See MetricsSink for the exact
	// contract. Nil (the default) keeps every instrumentation site down to a
	// single nil test.
	Metrics MetricsSink
	// Tuning, when non-nil, enables the online self-tuning Auto selection:
	// every completed Auto run's measured executor-phase time is fed back
	// into a per-plan calibration (keyed by the plan's structural
	// fingerprint), the cost-model coefficients are blended toward
	// back-solved observations, and decisions become a small epsilon-greedy
	// bandit over the three executors. Only Auto decisions consult it; a
	// valid Options.AutoCosts freezes tuning entirely (the coefficients are
	// declared known). Nil (the default) keeps the tuning hook down to a
	// single nil test per run.
	Tuning *TuningOptions
}

// Report describes one doacross execution: the time spent in each of the
// three phases and aggregate synchronization counters.
type Report struct {
	Workers     int
	Iterations  int
	PreTime     time.Duration
	ExecTime    time.Duration
	PostTime    time.Duration
	TotalTime   time.Duration
	TrueDeps    int64
	SelfDeps    int64
	AntiOrNone  int64
	WaitPolls   int64
	Order       string
	WaitPolicy  string
	SchedPolicy string
	// Executor names the execution strategy that ran ("doacross",
	// "wavefront", "wavefront-dynamic"); with Options.Executor = ExecAuto it
	// records the one the inspection picked.
	Executor string
	// Levels is the number of wavefront levels executed (wavefront
	// executors only; zero for the doacross).
	Levels int
	// InspectCached reports whether the wavefront decomposition and static
	// schedule came from the runtime's schedule cache instead of a fresh
	// inspection — the repeated-solve case the cache exists for.
	InspectCached bool
	// PlanRepaired reports that the plan this run consumed was incrementally
	// patched by RepairPlans since the previous run, rather than rebuilt by a
	// cold inspection or replayed unchanged; RepairNs is the total time those
	// repairs took, in nanoseconds. Both are stamped on the first run after
	// the repair and zero otherwise, so a dynamic-sparsity driver can see
	// which inspection path each edit took.
	PlanRepaired bool
	RepairNs     int64
	// AutoCosts are the cost-model coefficients an ExecAuto selection used
	// (configured or self-calibrated); zero when no cost-model decision was
	// made (fixed executor, or the Auto fallback for loops without Reads).
	AutoCosts AutoCosts
	// PredictedDoacrossNs, PredictedWavefrontNs and PredictedDynamicNs are
	// the cost model's executor-phase estimates behind an ExecAuto decision,
	// in the coefficients' time unit; zero when no cost-model decision was
	// made. PredictedDynamicNs is also zero when the coefficients carry no
	// claim cost (AutoCosts.ClaimNs), in which case the dynamic executor was
	// not considered.
	PredictedDoacrossNs  float64
	PredictedWavefrontNs float64
	PredictedDynamicNs   float64
	// TunedCosts are the online tuner's coefficients for this loop's plan
	// when the runtime runs with Options.Tuning: stamped after the run's
	// observation was absorbed, so they (and the predicted times above,
	// which are re-stamped with them) reflect what this run taught the
	// model, not just what the decision knew going in. Zero when tuning is
	// off or frozen.
	TunedCosts AutoCosts
	// Explored reports that the online tuner deliberately ran a non-best
	// executor this run to keep its measurements honest (the epsilon-greedy
	// bandit's exploration); convergence tests filter these runs out when
	// asserting the steady-state pick.
	Explored bool
	// NRHS is the number of right-hand-side columns a RunMulti call carried
	// through the traversal; zero for scalar runs. Phase times and counters
	// of a multi-column report aggregate all of the call's column blocks.
	NRHS int
}

// String renders the report in a compact human-readable form.
func (r Report) String() string {
	return fmt.Sprintf("P=%d iters=%d executor=%s pre=%v exec=%v post=%v total=%v truedeps=%d waits=%d",
		r.Workers, r.Iterations, r.Executor, r.PreTime, r.ExecTime, r.PostTime, r.TotalTime, r.TrueDeps, r.WaitPolls)
}

// Runtime holds the reusable scratch state of the preprocessed doacross: the
// iter table, the ready flags, the ynew buffer and the worker pool. As in
// Section 2.1 of the paper, one Runtime is shared by successive doacross
// loops over data arrays of the same length, and its postprocessing phase
// restores the scratch state so the next loop can start immediately.
// Scalar runs (RunContext) and blocked multi-RHS runs (RunMulti) share one
// driver and one per-position body (execBody). Every entry point — the runs,
// the ablation variants (RunBlocked, RunLinear, RunOracle, RunDoall),
// Inspect, InvalidatePlans, RepairPlans and the snapshots — may be called
// from multiple goroutines: they serialize on an internal mutex (one run
// executes at a time; RunBlocked takes it once per block).
type Runtime struct {
	opts Options
	pool *sched.Pool

	dataLen int
	iter    *flags.IterTable
	ready   *flags.ReadyFlags
	eIter   *flags.EpochIterTable
	eReady  *flags.EpochFlags
	ynew    []float64

	// Per-worker scratch reused across runs so the hot path of an iterative
	// driver (a Krylov solve calling Run thousands of times) allocates
	// nothing per iteration. What a warm run does allocate is per run: its
	// report and the executor's closures, barrier and phase stamps — 8
	// allocations for a warm scalar Solver.Solve and 12 for a warm 3-column
	// SolveMulti under every executor (TestWarmSolveAllocations).
	counters []execCounters
	vals     []Values
	// recs holds the per-worker declared-access recorders; nil unless
	// Options.AccessCheck is set, which is what keeps the sanitizer off the
	// unchecked hot path entirely.
	recs []accessRecorder
	// memoized static schedule: rebuilding the position lists is O(N) per
	// Run, which dominates repeated small-N runs.
	memoSched *sched.Schedule
	memoN     int

	// lastTrace holds the per-iteration trace of the most recent Run when
	// Options.CollectTrace is set.
	lastTrace *Trace

	// runMu serializes the stateful entry points (the runs and Run variants,
	// Inspect, InvalidatePlans, RepairPlans and the snapshots): the scratch
	// tables, counters, per-worker Values and schedule cache belong to one
	// run at a time, so concurrent callers queue up rather than race.
	runMu sync.Mutex

	// Schedule cache of the wavefront executor: planMemoLoop/planMemo is the
	// pointer-identity fast path for runs reusing one Loop value (the Solver
	// hot path), planCache the structural-hash tier behind it, and
	// levelScratch the reusable level-decomposition buffers of cold
	// inspections. planGen is the cache's generation: InvalidatePlans
	// advances it, and lookups reject plans built under an earlier
	// generation. See wavefrontPlan.
	planMemoLoop *Loop
	planMemo     *wavefrontPlan
	planCache    map[uint64]*wavefrontPlan
	planGen      uint64
	levelScratch depgraph.LevelSet

	// pendingRepairLoop/pendingRepairNs carry a successful RepairPlans over
	// to the loop's next run, which stamps Report.PlanRepaired/RepairNs and
	// clears them. Repairs between runs accumulate.
	pendingRepairLoop *Loop
	pendingRepairNs   int64

	// autoCosts memoizes the Auto selection's coefficients (configured or
	// probed) for the lifetime of the runtime.
	autoCosts AutoCosts

	// tuner is the online self-tuning state behind Options.Tuning (nil when
	// tuning is off), and tuneObs the decision armed by the current run for
	// post-run feedback. Both are guarded by runMu.
	tuner   *tuner
	tuneObs pendingObservation

	// ab is the per-run abort state, reused across runs so the hot path
	// allocates nothing for it. It is armed at the start of every run and
	// consulted by the executor before each position and inside cancellable
	// waits.
	ab runAbort

	// Multi-RHS block state (see multi.go). mold/mnew are the element-major
	// column-block buffers (value of element e, block column c at
	// [e*nc + c]), mvals the per-worker MultiValues scratch, and mnc the armed
	// block's column count: a non-zero mnc makes execBody run BodyMulti over
	// the block buffers instead of the scalar body over y. All are sized
	// lazily on the first RunMulti and reused across blocks and runs.
	mold  []float64
	mnew  []float64
	mvals []MultiValues
	mnc   int
}

// runAbort coordinates early termination of a run: the first failure
// (context cancellation, body error, body panic) is recorded and the
// triggered flag released, after which workers stop starting iterations and
// cancellable waits return. Workers still rendezvous at the phase barriers
// and run the postprocessing resets, so the completion barrier never leaks
// and the runtime stays reusable.
type runAbort struct {
	triggered atomic.Bool
	mu        sync.Mutex
	err       error
	// wake releases waiters parked by the WaitNotify strategy; nil when no
	// waiter can be parked.
	wake func()
}

// arm prepares the abort state for a new run.
func (a *runAbort) arm(wake func()) {
	a.triggered.Store(false)
	a.err = nil
	a.wake = wake
}

// abort records err (first failure wins) and releases the run.
func (a *runAbort) abort(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
	a.triggered.Store(true)
	if a.wake != nil {
		a.wake()
	}
}

// firstErr returns the recorded failure, nil if the run completed.
func (a *runAbort) firstErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// NewRuntime creates a runtime whose scratch arrays cover data arrays of
// length dataLen.
func NewRuntime(dataLen int, opts Options) *Runtime {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Workers > sched.MaxWorkers {
		// Keep the runtime's worker count equal to the pool's: a fused run
		// sizes its phase barrier to opts.Workers, and a barrier wider than
		// the pool would never fill.
		opts.Workers = sched.MaxWorkers
	}
	rt := &Runtime{
		opts:     opts,
		pool:     sched.NewPool(opts.Workers),
		dataLen:  dataLen,
		ynew:     make([]float64, dataLen),
		counters: make([]execCounters, opts.Workers),
		vals:     make([]Values, opts.Workers),
	}
	if opts.AccessCheck {
		rt.recs = make([]accessRecorder, opts.Workers)
	}
	if opts.Tuning != nil {
		rt.tuner = newTuner(*opts.Tuning)
	}
	if opts.UseEpochTables {
		rt.eIter = flags.NewEpochIterTable(dataLen)
		rt.eReady = flags.NewEpochFlags(dataLen)
		if opts.WaitStrategy == flags.WaitNotify {
			rt.eReady.EnableNotify()
		}
	} else {
		rt.iter = flags.NewIterTable(dataLen)
		rt.ready = flags.NewReadyFlags(dataLen)
		if opts.WaitStrategy == flags.WaitNotify {
			rt.ready.EnableNotify()
		}
	}
	return rt
}

// Workers reports the number of workers the runtime uses.
func (rt *Runtime) Workers() int { return rt.opts.Workers }

// Options returns a copy of the runtime's configuration.
func (rt *Runtime) Options() Options { return rt.opts }

// Close retires the runtime's worker pool. It is idempotent; a runtime that
// is garbage collected without Close releases its workers through the pool's
// finalizer, so forgetting Close never leaks goroutines.
func (rt *Runtime) Close() { rt.pool.Close() }

// InvalidatePlans evicts every cached wavefront plan by advancing the
// schedule cache's generation counter: both cache tiers (the Loop
// pointer-identity memo and the structural-hash map) reject plans built
// under an earlier generation, so the next run re-inspects cold. It exists
// for drivers that mutate a loop's index arrays in place — the cache
// otherwise assumes a Loop value's access pattern is stable for the Loop's
// lifetime, and a mutated pattern would silently replay a stale schedule.
// Drivers that change only a few iterations per step should prefer
// RepairPlans, which patches the cached plan instead of discarding it. Safe
// to call concurrently with Run.
func (rt *Runtime) InvalidatePlans() {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	rt.invalidateLocked()
}

// invalidateLocked is InvalidatePlans under an already-held run mutex — the
// shared eviction path of InvalidatePlans and RepairPlans' fallbacks.
func (rt *Runtime) invalidateLocked() {
	rt.planGen++
	rt.planMemoLoop, rt.planMemo = nil, nil
	clear(rt.planCache)
	rt.pendingRepairLoop, rt.pendingRepairNs = nil, 0
	rt.recordPlan(PlanInvalidated)
}

// schedule returns the static schedule for n positions, rebuilding it only
// when n changes between runs.
func (rt *Runtime) schedule(n int) *sched.Schedule {
	if rt.memoSched == nil || rt.memoN != n {
		rt.memoSched = sched.Build(rt.opts.Policy, n, rt.opts.Workers)
		rt.memoN = n
	}
	return rt.memoSched
}

// table and waiter return the active scratch structures behind small adapter
// types so the executor code is independent of the reset protocol.
func (rt *Runtime) table() writerTable {
	if rt.opts.UseEpochTables {
		return rt.eIter
	}
	return rt.iter
}

func (rt *Runtime) waiter() readyWaiter {
	if rt.opts.UseEpochTables {
		return epochWaiter{rt.eReady}
	}
	return flagWaiter{rt.ready}
}

// flagWaiter adapts flags.ReadyFlags to the readyWaiter interface.
type flagWaiter struct{ f *flags.ReadyFlags }

func (w flagWaiter) Set(e int)         { w.f.Set(e) }
func (w flagWaiter) IsDone(e int) bool { return w.f.IsDone(e) }
func (w flagWaiter) WaitFor(e int, s flags.WaitStrategy, cancelled *atomic.Bool) (int, bool) {
	return w.f.WaitCancel(e, s, cancelled)
}
func (w flagWaiter) WakeAll() { w.f.WakeAll() }

// epochWaiter adapts flags.EpochFlags to the readyWaiter interface.
type epochWaiter struct{ f *flags.EpochFlags }

func (w epochWaiter) Set(e int)         { w.f.Set(e) }
func (w epochWaiter) IsDone(e int) bool { return w.f.IsDone(e) }
func (w epochWaiter) WaitFor(e int, s flags.WaitStrategy, cancelled *atomic.Bool) (int, bool) {
	return w.f.WaitCancel(e, s, cancelled)
}
func (w epochWaiter) WakeAll() { w.f.WakeAll() }

// phaseBarrier separates the phases of a fused run: all participants of the
// submitted job rendezvous between the inspector, executor and postprocessor
// shards without releasing the workers back to the pool. The last arriver
// runs onLast (used to timestamp the phase boundary) before opening the
// barrier. The barrier is reusable across successive phases of one job.
type phaseBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *phaseBarrier) wait(onLast func()) {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		if onLast != nil {
			onLast()
		}
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == g {
		runtime.Gosched()
	}
}

// checkRunArgs performs the up-front structural validation shared by every
// Run variant, so a short data slice (or a loop wider than the runtime)
// yields a descriptive error instead of an index panic inside a worker
// goroutine mid-phase.
func (rt *Runtime) checkRunArgs(l *Loop, y []float64) error {
	if l.Data > rt.dataLen {
		return fmt.Errorf("core: loop data length %d exceeds runtime capacity %d", l.Data, rt.dataLen)
	}
	if len(y) < l.Data {
		return fmt.Errorf("core: data slice length %d shorter than loop data length %d", len(y), l.Data)
	}
	if l.Body == nil && l.BodyErr == nil {
		return fmt.Errorf("core: loop has neither Body nor BodyErr")
	}
	return nil
}

// wakeWaiters releases waiters parked by the WaitNotify strategy so a
// freshly-triggered abort is observed. With any other strategy it is nil
// (nothing parks), so the abort path costs nothing extra.
func (rt *Runtime) wakeWaiters() func() {
	if rt.opts.WaitStrategy != flags.WaitNotify {
		return nil
	}
	if rt.opts.UseEpochTables {
		return rt.eReady.WakeAll
	}
	return rt.ready.WakeAll
}

// watchContext arms the run's abort state and, when ctx is cancellable,
// starts a watcher goroutine that aborts the run the moment ctx is done. The
// returned stop function must be called (exactly once) after the run's
// workers have drained; it joins the watcher so the abort state can be
// safely reused by the next run.
func (rt *Runtime) watchContext(ctx context.Context) (stop func()) {
	rt.ab.arm(rt.wakeWaiters())
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			rt.ab.abort(ctx.Err())
		case <-quit:
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// Run executes the full preprocessed doacross — inspector, executor,
// postprocessor — on the loop, updating y in place exactly as the sequential
// loop would have. It returns a report of the execution. Run is
// RunContext with a background context.
func (rt *Runtime) Run(l *Loop, y []float64) (Report, error) {
	return rt.RunContext(context.Background(), l, y)
}

// RunContext is Run with cancellation and failure propagation: the run is
// aborted as soon as ctx is cancelled (or its deadline passes), a loop body
// returns an error (BodyErr) or reports one (Values.Fail), or a loop body
// panics (the panic is recovered into an error). On abort no further
// iterations start, iterations waiting on unsatisfied dependencies are
// released, the workers drain through the phase barriers as usual, and the
// scratch state is restored — the runtime and its pool remain fully
// reusable. The contents of y are unspecified after a failed run.
//
// The three phases are fused into a single pool submission: the workers are
// woken once per Run and rendezvous at internal barriers between the phases,
// instead of being dispatched (or, before the persistent pool, spawned)
// three times. The loop's data length must not exceed the runtime's. Run may
// be called repeatedly (with the same or different loops); the scratch
// arrays, worker pool and schedule are reused across calls as in the paper.
// RunContext checks y and the scalar body, then runs the loop through the
// driver it shares with RunMulti, as one traversal of y.
func (rt *Runtime) RunContext(ctx context.Context, l *Loop, y []float64) (Report, error) {
	if err := rt.checkRunArgs(l, y); err != nil {
		return Report{}, err
	}
	return rt.run(ctx, l, y, nil)
}

// run is the driver behind RunContext (ys nil: one traversal of y) and
// RunMulti (one traversal per MaxRHSBlock block of ys). Each traversal
// resolves its own executor and reports into its own Report; fold
// accumulates them into the run's. A traversal that failed after it started
// executing counts as one failed run of its executor in the metrics sink; a
// failure before that (executor resolution, a cancellation caught before
// execution) is not counted.
func (rt *Runtime) run(ctx context.Context, l *Loop, y []float64, ys [][]float64) (Report, error) {
	if rt.opts.Order != nil && len(rt.opts.Order) != l.N {
		return Report{}, fmt.Errorf("core: execution order has %d entries for %d iterations", len(rt.opts.Order), l.N)
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	// One run owns the scratch state at a time; concurrent runs (and every
	// other stateful entry point) serialize here.
	rt.runMu.Lock()
	defer rt.runMu.Unlock()

	order := "natural"
	if rt.opts.Order != nil {
		order = "reordered"
	}
	hdr := rt.reportFor(l, order)
	hdr.NRHS = len(ys)
	rep := hdr
	start := time.Now()
	// base == 0 admits the scalar run's single traversal (len(ys) == 0).
	for base := 0; base == 0 || base < len(ys); base += MaxRHSBlock {
		var block [][]float64
		if ys != nil {
			block = ys[base:min(base+MaxRHSBlock, len(ys))]
		}
		tr := hdr
		if err := rt.traverse(ctx, l, y, block, base, &tr); err != nil {
			if tr.Executor != "" {
				rt.recordRun(tr.Executor, time.Since(start), err)
			}
			return Report{}, err
		}
		rep.fold(tr)
	}
	rt.recordRun(rep.Executor, time.Since(start), nil)
	return rep, nil
}

// traverse runs one traversal of the loop — the whole scalar run (block nil)
// or one column block of a RunMulti call, whose first column is ys[colBase] —
// and reports it into tr. It resolves the executor at the traversal's width,
// stamps a pending repair, gathers a block into the element-major buffers,
// executes under the context watcher, scatters a block back and feeds the
// tuner this traversal's own executor time. tr.Executor is set only once the
// traversal is about to execute. Caller holds runMu.
func (rt *Runtime) traverse(ctx context.Context, l *Loop, y []float64, block [][]float64, colBase int, tr *Report) error {
	// Resolving the execution strategy is where ExecWavefront/ExecAuto
	// inspect (or hit the cache), so its cost is folded into the report's
	// preprocessing time below. Like the doacross's own inspector shard, a
	// cold inspection is not interruptible mid-flight; ctx is re-checked as
	// soon as it completes.
	start := time.Now()
	ex, err := rt.executorFor(l, tr, max(len(block), 1))
	if err != nil {
		return err
	}
	rt.stampRepair(l, tr)
	if err := ctx.Err(); err != nil {
		return err
	}
	tr.Executor = ex.name()
	if block != nil {
		// The y the executor sees is the renaming buffer itself: the multi
		// body never touches it and the executors' copy-back becomes a
		// self-assignment, so every executor runs a block unchanged.
		rt.armMulti(l, block, colBase)
		y = rt.ynew
	}
	pre := time.Since(start)
	stopWatch := rt.watchContext(ctx)
	ex.execute(l, y, tr)
	stopWatch()
	err = rt.ab.firstErr()
	if block != nil {
		if err == nil {
			postStart := time.Now()
			rt.scatterMulti(l, block)
			d := time.Since(postStart)
			tr.PostTime += d
			tr.TotalTime += d
		}
		rt.mnc = 0
	}
	if err != nil {
		return err
	}
	tr.PreTime += pre
	tr.TotalTime += pre
	tr.setCounters(sumCounters(rt.counters))
	rt.observeTuning(tr)
	return nil
}

// reportFor starts the report of a run of l: the runtime's worker count and
// policies, the loop's size, and order naming the execution order. The
// driver and every Run variant build their report header with it.
func (rt *Runtime) reportFor(l *Loop, order string) Report {
	return Report{
		Workers:     rt.opts.Workers,
		Iterations:  l.N,
		Order:       order,
		WaitPolicy:  rt.opts.WaitStrategy.String(),
		SchedPolicy: rt.opts.Policy.String(),
	}
}

// fold accumulates one traversal's report t into the run's report r: phase
// times, dependency counters and repair time add up, a repair or an
// exploration in any traversal marks the run, and every other field (the
// executor, its plan and the cost model's view) is the last traversal's.
func (r *Report) fold(t Report) {
	t.PreTime += r.PreTime
	t.ExecTime += r.ExecTime
	t.PostTime += r.PostTime
	t.TotalTime += r.TotalTime
	t.TrueDeps += r.TrueDeps
	t.SelfDeps += r.SelfDeps
	t.AntiOrNone += r.AntiOrNone
	t.WaitPolls += r.WaitPolls
	t.RepairNs += r.RepairNs
	t.PlanRepaired = t.PlanRepaired || r.PlanRepaired
	t.Explored = t.Explored || r.Explored
	*r = t
}

// stampRepair moves a RepairPlans result pending for l onto the report of
// l's run, once its executor is resolved. Every traversal calls it, so the
// first run after a repair reports it whichever entry point that run takes.
func (rt *Runtime) stampRepair(l *Loop, rep *Report) {
	if rt.pendingRepairLoop == l {
		rep.PlanRepaired = true
		rep.RepairNs = rt.pendingRepairNs
		rt.pendingRepairLoop, rt.pendingRepairNs = nil, 0
	}
}

// sumCounters totals the per-worker dependency counters of one execution.
func sumCounters(per []execCounters) execCounters {
	var sum execCounters
	for _, c := range per {
		sum.trueDeps += c.trueDeps
		sum.selfDeps += c.selfDeps
		sum.antiOrNone += c.antiOrNone
		sum.waitPolls += c.waitPolls
	}
	return sum
}

// setCounters copies the aggregated dependency counters into the report.
func (r *Report) setCounters(c execCounters) {
	r.TrueDeps = c.trueDeps
	r.SelfDeps = c.selfDeps
	r.AntiOrNone = c.antiOrNone
	r.WaitPolls = c.waitPolls
}

// Inspect runs the wavefront inspection on its own: when the loop declares
// Reads it derives the wavefront decomposition through the same schedule
// cache the wavefront executor uses and returns the inspection statistics
// the Auto executor selection consults. Loops without Reads return stats
// with only Iterations set (no graph can be built). The error is non-nil
// when a Writes/Reads closure panicked during the decomposition. The
// doacross writer table is filled by each doacross run's own inspector
// shard, so Inspect leaves the scratch state untouched.
func (rt *Runtime) Inspect(l *Loop) (InspectStats, error) {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	if l.Reads == nil {
		return InspectStats{Iterations: l.N}, nil
	}
	plan, cached, err := rt.wavefrontPlan(l)
	if err != nil {
		return InspectStats{Iterations: l.N}, err
	}
	st := plan.stats
	st.CacheHit = cached
	return st, nil
}

// execCounters aggregates the per-iteration dependency counters.
type execCounters struct {
	trueDeps   int64
	selfDeps   int64
	antiOrNone int64
	waitPolls  int64
}

// execBody arms a run — zeroes the per-worker counters and prepares (or
// clears) the trace — and builds the per-position body every executor and
// Run variant with a renaming buffer shares (the fused executors of scalar
// runs and RunMulti blocks, RunLinear and RunOracle). The returned closure
// runs one position of the transformed loop: it maps the position through
// the execution order, seeds the written elements (an armed block's written
// rows), runs the loop body — Body/BodyErr through the worker's reusable
// Values, or BodyMulti through its MultiValues when a RunMulti block is
// armed — marks the written elements ready and accumulates the worker's
// dependency counters, all through worker-indexed slots, so the hot path
// stays allocation-free. Once the run is aborted, remaining positions drain
// without executing their bodies; a failing body aborts the run and leaves
// its elements unpublished (waiters are released through the cancellable
// wait instead).
func (rt *Runtime) execBody(l *Loop, y []float64, tab writerTable, ready readyWaiter) func(worker, pos int) {
	for i := range rt.counters {
		rt.counters[i] = execCounters{}
	}
	traceBase := rt.armTrace(l)
	order := rt.opts.Order
	ab := &rt.ab
	// Keep the closure's captures to these and the parameters: every
	// captured value is loaded and spilled at each call, a measurable cost
	// per position, so the run's mode (scalar or an armed block) is read
	// from rt inside the body rather than captured.
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
		// A scalar run renames y through ynew; an armed block renames the
		// element-major block buffers, one row of nc columns per element.
		old, new, nc := y, rt.ynew, 1
		s := &rt.vals[worker].iterState
		if rt.mnc > 0 {
			old, new, nc = rt.mold, rt.mnew, rt.mnc
			s = &rt.mvals[worker].iterState
		}
		// Statement S2 of the paper's Figure 5: seed ynew(a(i)) with the old
		// value (the old row, for a block) so intra-iteration
		// (self-dependence) reads observe the value the sequential loop would
		// have seen before this iteration's write.
		if nc == 1 {
			for _, e := range writes {
				new[e] = old[e]
			}
		} else {
			for _, e := range writes {
				copy(new[e*nc:(e+1)*nc], old[e*nc:(e+1)*nc])
			}
		}
		s.reset(tab, ready, old, new, i, rt.opts.WaitStrategy, &ab.triggered)
		rt.armAccessCheck(s, l, worker, i, writes)
		var err error
		if rt.mnc > 0 {
			l.BodyMulti(i, &rt.mvals[worker])
			err = s.failErr
		} else {
			err = l.run(i, &rt.vals[worker])
		}
		if err == nil {
			// An undeclared access aborts like a body error: the iteration's
			// elements stay unpublished and the first violation wins.
			err = s.accessViolation()
		}
		if err != nil {
			ab.abort(err)
			return
		}
		for _, e := range writes {
			ready.Set(e)
		}
		c := &rt.counters[worker]
		c.trueDeps += int64(s.truedeps)
		c.selfDeps += int64(s.selfdeps)
		c.antiOrNone += int64(s.antiOrNone)
		c.waitPolls += int64(s.waits)
		if rt.lastTrace != nil {
			rt.lastTrace.Iterations[pos] = IterTrace{
				Iteration: i,
				Position:  pos,
				Worker:    worker,
				Start:     start,
				End:       time.Since(traceBase),
				WaitPolls: s.waits,
				TrueDeps:  s.truedeps,
			}
		}
	}
}

// ScratchClean reports whether the scratch arrays are back in their pristine
// state (every iter entry MAXINT, every ready flag NOTDONE). It exists so
// tests can verify the paper's reuse invariant after a run. Epoch-table
// runtimes are always clean by construction.
func (rt *Runtime) ScratchClean() bool {
	if rt.opts.UseEpochTables {
		return true
	}
	for e := 0; e < rt.dataLen; e++ {
		if rt.iter.Writer(e) != flags.MaxInt || rt.ready.IsDone(e) {
			return false
		}
	}
	return true
}
