package doacross

import (
	"context"
	"fmt"

	"doacross/internal/core"
	"doacross/internal/flags"
	"doacross/internal/sched"
)

// Loop describes a runtime-dependent loop over a shared data array. It is
// the same type the internal runtime executes, re-exported so loops built by
// in-module helpers (the test-loop generator, the triangular-solve layer)
// flow through the facade unchanged. Prefer NewLoop, which validates the
// description; a Loop literal works too and can be checked with Validate.
type Loop = core.Loop

// Values gives a loop body access to the shared array with the paper's
// execution-time dependency checks: Load performs the dependency check (and
// wait), Store writes through the renaming buffer, Fail aborts the run.
type Values = core.Values

// MultiValues gives a multi-RHS loop body (see LoopBuilder.BodyMulti and
// Runtime.RunMulti) access to a column block of the shared array: LoadRow
// performs one dependency check for a whole row of columns, Row exposes the
// iteration's writable output row. It shares Values' per-iteration state, so
// Iteration, Waits and Fail behave the same on both.
type MultiValues = core.MultiValues

// MaxRHSBlock is the widest column block one traversal carries; RunMulti and
// Solver.SolveMulti split wider requests into blocks of this size.
const MaxRHSBlock = core.MaxRHSBlock

// Report describes one doacross execution: per-phase times and aggregate
// synchronization counters.
type Report = core.Report

// AccessError reports a shared-array access that an iteration's declared
// Writes/Reads pattern does not cover, produced by runs under
// WithAccessCheck. It names the iteration, the element and the accessor.
type AccessError = core.AccessError

// AccessOp identifies the accessor behind an AccessError.
type AccessOp = core.AccessOp

// Accessors an AccessError can attribute an undeclared access to.
const (
	// AccessRead is a Load outside the declared Reads/Writes sets.
	AccessRead AccessOp = core.AccessRead
	// AccessReadNew is a LoadNew of an element the iteration does not write.
	AccessReadNew AccessOp = core.AccessReadNew
	// AccessWrite is a Store outside the declared Writes set.
	AccessWrite AccessOp = core.AccessWrite
)

// Trace is the per-iteration execution record collected under WithTrace.
type Trace = core.Trace

// IterTrace is one iteration's entry in a Trace.
type IterTrace = core.IterTrace

// LinearSubscript describes a left-hand-side subscript a(i) = C*i + D, the
// Section 2.3 special case that needs no inspector (see Runtime.RunLinear).
type LinearSubscript = core.LinearSubscript

// Policy selects how loop positions are assigned to workers.
type Policy = sched.Policy

// Scheduling policies.
const (
	// Block assigns contiguous position ranges to each worker.
	Block Policy = sched.Block
	// Cyclic assigns positions round robin.
	Cyclic Policy = sched.Cyclic
	// Dynamic self-schedules: workers repeatedly claim the next chunk.
	Dynamic Policy = sched.Dynamic
)

// ExecutorKind selects the execution strategy: how run-time dependencies are
// enforced during the executor phase.
type ExecutorKind = core.ExecutorKind

// Execution strategies.
const (
	// Doacross is the paper's flag-based busy-wait doacross (the default):
	// iterations start in schedule order and reads of not-yet-produced
	// elements wait on per-element ready flags. It pipelines across
	// wavefronts at the cost of per-read flag checks.
	Doacross ExecutorKind = core.ExecDoacross
	// Wavefront pre-schedules execution: the inspector builds the true
	// dependency graph, decomposes it into wavefront levels, and each level
	// runs as a barrier-separated doall — no flags, no busy waits. The
	// decomposition and its static schedule are cached across runs on the
	// same runtime (keyed by the loop's access pattern), so repeated solves
	// inspect once. Requires Loop.Reads and natural order (no WithOrder).
	Wavefront ExecutorKind = core.ExecWavefront
	// WavefrontDynamic is the wavefront execution with dynamic within-level
	// assignment: the same cached decomposition as Wavefront, but inside
	// each level the workers self-schedule chunks out of the level's member
	// list (at the WithChunk granularity) instead of running a static
	// schedule. One contended atomic per chunk claim buys within-level load
	// balance: a level with one hot iteration no longer stalls the barrier
	// behind whichever worker the static schedule dealt it to. Same
	// requirements as Wavefront (Loop.Reads, no WithOrder).
	WavefrontDynamic ExecutorKind = core.ExecWavefrontDynamic
	// Auto inspects the loop once through the same cache and picks the
	// strategy with a calibrated cost model: the inspected dependency
	// structure (edges, levels, schedule rounds, within-level read
	// imbalance, claim counts) is priced with measured barrier, flag-check
	// and chunk-claim costs — supplied through WithAutoCosts, or
	// self-calibrated once per runtime by micro-timing the primitives on
	// the live worker pool — and the predicted-cheapest of the three
	// executors runs. The coefficients and all predictions are reported in
	// Report.
	Auto ExecutorKind = core.ExecAuto
)

// AutoCosts are the coefficients of the Auto selection's cost model: the
// cost of one level-barrier rendezvous, of one flag-table operation, of one
// dynamic chunk claim, and an optional per-iteration work estimate. Zero
// value means self-calibrate; see WithAutoCosts. Its PredictN method prices
// the three executors for an InspectStats and Choose replays Auto's pick
// offline; the model is documented once, on internal/tune's Coeffs, which
// this type aliases.
type AutoCosts = core.AutoCosts

// TuningOptions configures the online self-tuning Auto selection; see
// WithOnlineTuning. The zero value of every field means its default: probe
// for the seed coefficients (InitialCosts), explore with probability 0.125
// (Epsilon), seed the exploration RNG with 1 (Seed).
type TuningOptions = core.TuningOptions

// TuningSnapshot is a point-in-time copy of a runtime's online-tuning state;
// see Runtime.TuningSnapshot.
type TuningSnapshot = core.TuningSnapshot

// TuningPlan is one plan's calibration in a TuningSnapshot.
type TuningPlan = core.TuningPlan

// TuningArm is one executor's observation summary in a TuningPlan.
type TuningArm = core.TuningArm

// EditSet describes an in-place mutation of a loop's access pattern for
// Runtime.RepairPlans: the iterations whose Writes/Reads results changed,
// plus any data elements no longer written by anyone. See WithEdits for the
// common read-pattern-only case.
type EditSet = core.EditSet

// RepairReport describes what a RepairPlans call did: whether the cached
// plan was patched in place or the runtime fell back to a full invalidation,
// the dirty-cone size, the earliest perturbed level, and the repair time.
type RepairReport = core.RepairReport

// WithEdits builds the EditSet for the common case where only the read
// patterns of the listed iterations changed (a triangular-solve row update:
// writes are the identity and never move).
func WithEdits(iters ...int) EditSet { return EditSet{Iters: iters} }

// InspectStats describes what the inspector learned about a loop's
// dependency structure: level count, widths, critical path, the schedule,
// stall and claim statistics the Auto cost model prices, and whether the
// decomposition came from the runtime's schedule cache. It is the input of
// AutoCosts.PredictN and AutoCosts.Choose.
type InspectStats = core.InspectStats

// WaitStrategy selects how executors wait on unsatisfied true dependencies.
type WaitStrategy = flags.WaitStrategy

// Wait strategies.
const (
	// WaitSpin busy-waits, exactly as in the paper.
	WaitSpin WaitStrategy = flags.WaitSpin
	// WaitSpinYield busy-waits but yields to the Go scheduler between
	// polls; safe when workers exceed GOMAXPROCS.
	WaitSpinYield WaitStrategy = flags.WaitSpinYield
	// WaitNotify parks waiters and wakes them from the writer.
	WaitNotify WaitStrategy = flags.WaitNotify
)

// config accumulates the functional options behind New.
type config struct {
	opts core.Options
	err  error
}

func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Option configures a Runtime built by New.
type Option func(*config)

// WithWorkers sets the number of concurrent workers (default 1).
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.fail(fmt.Errorf("doacross: WithWorkers requires at least 1 worker, got %d", n))
			return
		}
		c.opts.Workers = n
	}
}

// WithPolicy selects the iteration-scheduling policy (default Block).
func WithPolicy(p Policy) Option {
	return func(c *config) {
		switch p {
		case Block, Cyclic, Dynamic:
			c.opts.Policy = p
		default:
			c.fail(fmt.Errorf("doacross: unknown scheduling policy %d", int(p)))
		}
	}
}

// WithChunk sets the chunk size used by the Dynamic policy.
func WithChunk(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.fail(fmt.Errorf("doacross: WithChunk requires a positive chunk size, got %d", n))
			return
		}
		c.opts.Chunk = n
	}
}

// WithWaitStrategy selects how true-dependency waits are performed (default
// the paper's busy wait; WaitSpinYield is recommended when workers exceed
// GOMAXPROCS).
func WithWaitStrategy(s WaitStrategy) Option {
	return func(c *config) {
		switch s {
		case WaitSpin, WaitSpinYield, WaitNotify:
			c.opts.WaitStrategy = s
		default:
			c.fail(fmt.Errorf("doacross: unknown wait strategy %d", int(s)))
		}
	}
}

// WithExecutor selects the execution strategy (default Doacross, the paper's
// busy-wait construct). Wavefront switches to pre-scheduled level-set
// execution — the inspector's dependency graph decomposed into
// barrier-separated doall levels, with the decomposition and its static
// schedule cached across runs — WavefrontDynamic runs the same levels with
// dynamic within-level self-scheduling (absorbing per-level cost variance at
// the price of one claim per chunk), and Auto picks per loop from the
// inspected graph shape. Both wavefront executors require the loop to
// declare Reads covering every element the body may Load (see
// LoopBuilder.Reads) and are incompatible with WithOrder (they derive their
// own level order); Auto falls back to Doacross in both cases. Both tiers of
// the schedule cache assume a Loop value's access pattern never changes;
// build a fresh Loop when the pattern does.
func WithExecutor(k ExecutorKind) Option {
	return func(c *config) {
		switch k {
		case Doacross, Wavefront, WavefrontDynamic, Auto:
			c.opts.Executor = k
		default:
			c.fail(fmt.Errorf("doacross: unknown executor kind %d", int(k)))
		}
	}
}

// WithAutoCosts fixes the Auto selection's cost-model coefficients instead
// of the per-runtime self-calibration probe: BarrierNs is the cost of one
// level-barrier rendezvous at the runtime's worker count, FlagCheckNs the
// cost of one flag-table operation, ClaimNs the cost of one dynamic chunk
// claim (zero excludes the dynamic executor from the comparison), and IterNs
// an optional estimate of one iteration's useful work (zero compares pure
// synchronization overheads). Only the ratios matter. All four must be
// finite, BarrierNs and FlagCheckNs positive, ClaimNs and IterNs
// non-negative; New rejects anything else. Supplying the coefficients makes
// WithExecutor(Auto) deterministic across hosts — tests and
// simulator-calibrated deployments want that; leave it unset to let the
// runtime measure its own barrier, flag-check and claim costs once on its
// live pool.
func WithAutoCosts(c AutoCosts) Option {
	return func(cf *config) {
		if !c.Valid() {
			cf.fail(fmt.Errorf("doacross: WithAutoCosts requires finite coefficients, positive BarrierNs and FlagCheckNs and non-negative ClaimNs and IterNs, got %+v", c))
			return
		}
		cf.opts.AutoCosts = c
	}
}

// WithOnlineTuning enables measured-feedback calibration of the Auto
// selection: every completed Auto run feeds its measured executor-phase time
// back into a per-plan-fingerprint calibration that smooths the observations
// (an exponential moving average with the fixed smoothing factor 0.25, one
// outlier sample capped at 1.5x the average), back-solves the cost-model
// coefficients toward what the measurements imply (folded in at the fixed
// rate 0.5, the per-iteration work term first), and decides subsequent runs
// epsilon-greedily (o.Epsilon) — preferring the measured-fastest executor but
// occasionally re-sampling a less-observed one, so a wrong initial pick
// cannot lock in. The exploration RNG is seeded (o.Seed), making decision
// sequences reproducible run for run.
//
// o.InitialCosts seeds the calibration instead of the self-calibration probe
// (it must be zero or pass the same check as WithAutoCosts); unlike
// WithAutoCosts it is a starting point the feedback corrects, not a pin.
// Combining WithOnlineTuning with WithAutoCosts is allowed and freezes the
// tuner: pinned coefficients declare the model known, so no feedback is
// recorded and the tuner state never changes. Off by default; when off, the
// only per-run cost of the machinery is a nil test. Reports of tuned runs
// stamp Report.TunedCosts and Report.Explored, and the accumulated state is
// observable through Runtime.TuningSnapshot and a metrics sink implementing
// TuningSink.
func WithOnlineTuning(o TuningOptions) Option {
	return func(c *config) {
		if o.Epsilon > 1 {
			c.fail(fmt.Errorf("doacross: WithOnlineTuning requires Epsilon at most 1 (negative disables exploration), got %v", o.Epsilon))
			return
		}
		if ic := o.InitialCosts; ic != (AutoCosts{}) && !ic.Valid() {
			c.fail(fmt.Errorf("doacross: WithOnlineTuning InitialCosts require finite coefficients, positive BarrierNs and FlagCheckNs and non-negative ClaimNs and IterNs, got %+v", ic))
			return
		}
		c.opts.Tuning = &o
	}
}

// WithOrder sets the execution order produced by a reordering transform:
// position k of the parallel loop executes original iteration order[k]. The
// order must be a permutation of 0..N-1 of the loop the runtime will run,
// and must respect all true dependencies.
func WithOrder(order []int) Option {
	return func(c *config) {
		if order != nil && !isPermutation(order) {
			c.fail(fmt.Errorf("doacross: WithOrder requires a permutation of 0..%d", len(order)-1))
			return
		}
		c.opts.Order = order
	}
}

// isPermutation reports whether order contains every value 0..len-1 once.
func isPermutation(order []int) bool {
	seen := make([]bool, len(order))
	for _, v := range order {
		if v < 0 || v >= len(order) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// WithTrace records a per-iteration execution trace, retrievable through
// Runtime.Trace after a run. It adds two clock readings per iteration, so
// leave it off for performance-sensitive runs.
func WithTrace() Option {
	return func(c *config) { c.opts.CollectTrace = true }
}

// WithEpochTables replaces the paper's postprocessing reset protocol with
// epoch-versioned tables that reset in O(1). Results are identical; this is
// a design-choice ablation.
func WithEpochTables() Option {
	return func(c *config) { c.opts.UseEpochTables = true }
}

// WithAccessCheck enables the declared-access sanitizer: every iteration's
// actual Values accesses (Load, LoadNew, Store) are shadow-checked against
// the pattern the loop declares through Writes and Reads, and the first
// undeclared access aborts the run with an *AccessError naming the iteration,
// the element and the accessor. Use it in tests and while bringing up a new
// loop: an under-declared pattern often runs correctly under the dynamic
// doacross executor and only races once a pre-scheduled (wavefront) executor
// trusts the declaration. The check costs a few membership probes per access
// when on and a single nil test when off, so leave it off in production runs.
func WithAccessCheck(on bool) Option {
	return func(c *config) { c.opts.AccessCheck = on }
}

// buildOptions folds a list of options into the internal runtime options,
// reporting the first invalid option. Cross-option conflicts are checked
// after folding, so they are caught whatever order the options appear in.
func buildOptions(opts []Option) (core.Options, error) {
	c := config{opts: core.Options{Workers: 1}}
	for _, o := range opts {
		o(&c)
	}
	if c.err == nil && c.opts.Order != nil && (c.opts.Executor == Wavefront || c.opts.Executor == WavefrontDynamic) {
		c.fail(fmt.Errorf("doacross: WithExecutor(%v) is incompatible with WithOrder (the wavefront executors derive their own level order)", c.opts.Executor))
	}
	return c.opts, c.err
}

// Runtime holds the reusable state of a preprocessed doacross: the
// inspector's scratch tables, the renaming buffer and a persistent worker
// pool. Build one Runtime per data-array length and reuse it across runs (an
// iterative driver calls Run thousands of times on one Runtime). The runs
// (Run, RunMulti, RunBlocked, RunLinear, RunDoall), Inspect,
// InvalidatePlans, RepairPlans and TuningSnapshot may be called from
// multiple goroutines — they serialize on an internal mutex, so one run
// executes at a time. Close releases the worker pool.
type Runtime struct {
	rt *core.Runtime
}

// New creates a runtime whose scratch arrays cover data arrays of length
// dataLen, configured by the given options.
func New(dataLen int, opts ...Option) (*Runtime, error) {
	if dataLen < 0 {
		return nil, fmt.Errorf("doacross: negative data length %d", dataLen)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Runtime{rt: core.NewRuntime(dataLen, o)}, nil
}

// Run executes the full preprocessed doacross — inspector, executor,
// postprocessor — on the loop, updating y in place exactly as the sequential
// loop would have, and returns a report of the execution.
//
// Run honors ctx between wavefront chunks: cancellation or an expired
// deadline aborts the run and returns ctx's error (context.Canceled or
// context.DeadlineExceeded). A loop body that returns an error (BodyErr),
// reports one through Values.Fail, or panics likewise aborts the run; the
// panic is recovered into the returned error. On any abort the remaining
// iterations are skipped, waiting iterations are released, the workers drain
// cleanly, and the runtime (including its pool) remains reusable. The
// contents of y are unspecified after a failed run.
func (r *Runtime) Run(ctx context.Context, l *Loop, y []float64) (Report, error) {
	return r.rt.RunContext(ctx, l, y)
}

// RunBlocked executes the loop with the strip-mined (blocked) doacross of
// the paper's Section 2.3: an outer sequential loop over blocks of blockSize
// iterations, each block a full preprocessed doacross. Cancellation and
// failure behave as in Run.
func (r *Runtime) RunBlocked(ctx context.Context, l *Loop, y []float64, blockSize int) (Report, error) {
	return r.rt.RunBlockedContext(ctx, l, y, blockSize)
}

// RunMulti executes the loop once per column block of ys — each ys[c] an
// independent copy of the shared array — with a single wavefront traversal
// per block applying the loop's BodyMulti to every column. The traversal's
// fixed overheads (inspector, level barriers, claim traffic) are paid once
// per block instead of once per column, which is the batched-solve speedup
// the serving front end builds on. Blocks are MaxRHSBlock columns wide; the
// Auto executor sees the block width, so its pick may differ from the
// scalar run's. Cancellation and failure behave as in Run.
func (r *Runtime) RunMulti(ctx context.Context, l *Loop, ys [][]float64) (Report, error) {
	return r.rt.RunMulti(ctx, l, ys)
}

// RunLinear executes the loop with the linear-subscript variant of Section
// 2.3: when the left-hand-side subscript is a(i) = C*i + D, the inspector
// phase is eliminated entirely and the dependency check uses the closed
// form.
func (r *Runtime) RunLinear(l *Loop, y []float64, sub LinearSubscript) (Report, error) {
	return r.rt.RunLinear(l, y, sub)
}

// RunDoall executes the loop as a doall — no dependency checks, no
// synchronization, writes applied directly to y. It is only correct for
// loops with no cross-iteration dependencies and exists as the
// zero-overhead baseline of the paper's experiments.
func (r *Runtime) RunDoall(l *Loop, y []float64) (Report, error) {
	return r.rt.RunDoall(l, y)
}

// Inspect runs only the wavefront inspection and returns its statistics: the
// decomposition's level count, widths and critical path when the loop
// declares Reads (computed through — and cached in — the same schedule cache
// the Wavefront executor uses), or just the iteration count when it does
// not. The error is non-nil
// when a Writes/Reads closure panicked during the decomposition. It exists
// for overhead measurements and executor-selection diagnostics; Run inspects
// automatically.
func (r *Runtime) Inspect(l *Loop) (InspectStats, error) { return r.rt.Inspect(l) }

// InvalidatePlans evicts every cached wavefront plan (both the Loop
// pointer-identity memo and the structural-hash tier) by advancing the
// schedule cache's generation counter, so the next Wavefront/Auto run
// re-inspects cold. Call it after mutating a loop's index arrays in place —
// the cache otherwise assumes a Loop value's access pattern never changes
// and would silently replay the stale schedule. Safe to call concurrently
// with Run.
func (r *Runtime) InvalidatePlans() { r.rt.InvalidatePlans() }

// RepairPlans patches the cached wavefront plan of l after an in-place edit
// of its access pattern, instead of evicting everything: only the dirty cone
// — the edited iterations plus the transitive successors whose wavefront
// level moves — is recomputed, and untouched prefix levels keep their exact
// schedule. For a few edited rows of a large loop this is orders of
// magnitude cheaper than the cold re-inspect InvalidatePlans forces, which
// is what makes per-step sparsity changes (mesh refinement, ILU fill-in)
// affordable. It falls back to a full invalidation (Repaired == false, nil
// error) when no repairable plan is cached for l or when the dirty cone
// exceeds the cost model's break-even budget; either way the cache ends up
// consistent, so RepairPlans never needs to be paired with InvalidatePlans.
// The loop's next run stamps Report.PlanRepaired and Report.RepairNs. Safe
// to call concurrently with Run.
func (r *Runtime) RepairPlans(l *Loop, edits EditSet) (RepairReport, error) {
	return r.rt.RepairPlans(l, edits)
}

// TuningSnapshot returns a copy of the runtime's online-tuning state
// (WithOnlineTuning): aggregate observation counts and each tuned plan's
// calibrated coefficients and per-executor observation summaries, sorted by
// plan fingerprint. Runtimes without tuning report the zero snapshot. It
// serializes with the runtime's runs; the snapshot is owned by the caller.
func (r *Runtime) TuningSnapshot() TuningSnapshot { return r.rt.TuningSnapshot() }

// Trace returns the per-iteration trace of the most recent run when the
// runtime was built with WithTrace, or nil otherwise. The trace is owned by
// the runtime and overwritten by the next traced run.
func (r *Runtime) Trace() *Trace { return r.rt.Trace() }

// Workers reports the number of workers the runtime uses.
func (r *Runtime) Workers() int { return r.rt.Workers() }

// ScratchClean reports whether the scratch arrays are back in their pristine
// state, the paper's reuse invariant. It exists for tests and diagnostics.
func (r *Runtime) ScratchClean() bool { return r.rt.ScratchClean() }

// Close retires the runtime's worker pool. It is idempotent, and a runtime
// that is garbage collected without Close releases its workers through a
// finalizer, so forgetting Close never leaks goroutines.
func (r *Runtime) Close() { r.rt.Close() }

// RunSequential executes the loop exactly as the original sequential loop
// would, applying all writes in iteration order directly to y. It is the
// reference the doacross results are compared against. A BodyErr failure (or
// Values.Fail) stops the loop and is returned.
func RunSequential(l *Loop, y []float64) error {
	return core.RunSequential(l, y)
}

// LoopBuilder assembles a Loop description; see NewLoop.
type LoopBuilder struct {
	l Loop
}

// NewLoop starts a loop description for n iterations over a shared array of
// length dataLen. Chain Writes, Reads and Body/BodyErr, then call Build to
// validate and obtain the Loop.
func NewLoop(n, dataLen int) *LoopBuilder {
	return &LoopBuilder{l: Loop{N: n, Data: dataLen}}
}

// Writes sets the function returning the data elements written by iteration
// i (the paper's a(i); usually a single element). No element may be written
// by two different iterations.
func (b *LoopBuilder) Writes(f func(i int) []int) *LoopBuilder {
	b.l.Writes = f
	return b
}

// Reads sets the function returning the data elements iteration i may read.
// The default Doacross executor discovers reads dynamically through
// Values.Load and never consults it; analysis layers and the
// Wavefront/Auto executors do, and for them Reads must cover every element
// the body may Load (over-declaring is safe; under-declaring makes the
// pre-scheduled execution silently incorrect). Optional when only the
// Doacross executor will run the loop.
func (b *LoopBuilder) Reads(f func(i int) []int) *LoopBuilder {
	b.l.Reads = f
	return b
}

// Body sets the iteration body. All accesses to the shared array must go
// through v. Mutually exclusive with BodyErr.
func (b *LoopBuilder) Body(f func(i int, v *Values)) *LoopBuilder {
	b.l.Body = f
	return b
}

// BodyErr sets the error-returning iteration body: a non-nil return aborts
// the run and is returned from Runtime.Run. Mutually exclusive with Body.
func (b *LoopBuilder) BodyErr(f func(i int, v *Values) error) *LoopBuilder {
	b.l.BodyErr = f
	return b
}

// BodyMulti sets the column-blocked iteration body executed by
// Runtime.RunMulti: the same iteration applied to every column of a block of
// independent data arrays in one traversal. It coexists with Body/BodyErr —
// a loop carrying both runs scalar under Run and blocked under RunMulti. The
// body must perform the same element accesses in every column; reads that
// may hit the iteration's own written element must go through per-column
// LoadRow calls (see MultiValues).
func (b *LoopBuilder) BodyMulti(f func(i int, v *MultiValues)) *LoopBuilder {
	b.l.BodyMulti = f
	return b
}

// Build validates the loop description (sizes, at most one of Body/BodyErr
// and at least one body variant, no output dependencies) and returns it.
func (b *LoopBuilder) Build() (*Loop, error) {
	l := b.l
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &l, nil
}
