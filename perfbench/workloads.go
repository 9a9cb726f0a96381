package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"doacross"
	"doacross/internal/doastat"
	"doacross/internal/krylov"
	"doacross/internal/serve"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
)

// workload is one benchmark workload: how to build it from the seed, which
// test problem the layer probes run on, and the solver options it runs with.
type workload struct {
	name string
	// problem is the matrix the layer probes (probes.go) factor and solve.
	problem stencil.Problem
	// opts are the workload's solver options.
	opts func() []doacross.Option
	// build constructs the workload and runs its warm-up ops: everything a
	// user pays before the first timed op, which setup_s measures.
	build func(seed int64) (fixture, error)
	// warmOps is how many ops build runs; timed ops are numbered from it.
	warmOps int
	// probeSeconds is how long the workload runs, traced, when it measures
	// its layers for another workload's traced run.
	probeSeconds float64
	// root names the span that covers one op.
	root string
}

// The workloads. Each stresses a different path through the runtime:
//
//   - trisolve-spe2 is the per-run inspector, flag waits and pool dispatch
//     of the doacross (SPE2's 90 narrow levels make Auto pick it), the place
//     where the overhead against raw substitution is widest;
//   - cg-7pt is the paper's motivating application, time to solution of an
//     ILU(0)-preconditioned CG; its factors have 58 wide levels, so Auto
//     picks the cached wavefront and barriers plus per-row framework cost
//     dominate, diluted by SpMV and vector work;
//   - serve-spe2 reaches the same core layer through the blocked multi-RHS
//     path (RunMulti/BodyMulti) behind request coalescing, so a change that
//     speeds scalar solves but costs the blocked path shows here;
//   - refine-5pt writes beside its reads: row edits repaired in place
//     (RepairPlans, depgraph repair, lazy schedule patch), the only workload
//     that measures that layer.
var workloads = map[string]workload{
	"trisolve-spe2": {
		name: "trisolve-spe2", problem: stencil.SPE2, opts: pinnedAuto,
		build: buildTrisolve, warmOps: warmTrisolve, probeSeconds: 0.3, root: "op",
	},
	"cg-7pt": {
		name: "cg-7pt", problem: stencil.SevenPoint, opts: pinnedAuto,
		build: buildCG, warmOps: warmCG, probeSeconds: 0.4, root: "op",
	},
	"serve-spe2": {
		name: "serve-spe2", problem: stencil.SPE2, opts: pinnedAuto,
		build: buildServe, warmOps: warmServe, probeSeconds: 0.5, root: "serve.request",
	},
	"refine-5pt": {
		name: "refine-5pt", problem: stencil.FivePoint, opts: wavefrontOnly,
		build: buildRefine, warmOps: warmRefine, probeSeconds: 0.3, root: "op",
	},
}

// Warm-up ops each workload runs as part of its setup.
const (
	warmTrisolve = 3
	warmCG       = 1
	warmServe    = 2
	warmRefine   = 3
)

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// nominalCosts are doastat's nominal cost-model coefficients. Pinning Auto
// to them makes its pick a function of the input alone; self-calibrated
// coefficients flip the pick between processes of identical code.
var nominalCosts = doacross.AutoCosts{
	BarrierNs:   doastat.DefaultBarrierNs,
	FlagCheckNs: doastat.DefaultFlagCheckNs,
	ClaimNs:     doastat.DefaultClaimNs,
	IterNs:      doastat.DefaultIterNs,
}

// solverOptions are the options every solver of the benchmark shares, plus
// the executor; pinned adds the nominal Auto coefficients.
func solverOptions(exec doacross.ExecutorKind, pinned bool) []doacross.Option {
	opts := []doacross.Option{
		doacross.WithWorkers(workers),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(32),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
		doacross.WithExecutor(exec),
	}
	if pinned {
		opts = append(opts, doacross.WithAutoCosts(nominalCosts))
	}
	return opts
}

func pinnedAuto() []doacross.Option { return solverOptions(doacross.Auto, true) }

func wavefrontOnly() []doacross.Option { return solverOptions(doacross.Wavefront, false) }

// fixture is a built workload.
type fixture interface {
	// prepare computes the reference answers the ops are checked against.
	// It runs after the timed setup: it is the benchmark's work, not the
	// system's.
	prepare() error
	// drive runs ops numbered from k0 for d, timing each, and checks every
	// answer outside the timed part. A non-nil tracer records spans.
	drive(k0 int, d time.Duration, tr *tracer) phase
	// layerMetrics sets the per-layer metrics this workload's ops measure,
	// from a traced phase and its spans.
	layerMetrics(sum traceSummary, ph phase, m metrics)
	close()
}

// phase is what one drive measured.
type phase struct {
	attempted, failed int
	// refused counts ops the system turned away (a full service queue).
	refused int
	// lat is each correct op's latency and late how long after it was due
	// each op started, both in microseconds.
	lat, late []float64
	// busy is the time ops_per_s divides by: the summed op time of a closed
	// loop; for an open one, the time from the first arrival slot to the
	// last answer.
	busy time.Duration
	// next is the number of the first op after the phase.
	next     int
	firstErr error
}

func (p *phase) opsPerSecond() float64 { return float64(len(p.lat)) / p.busy.Seconds() }

func (p *phase) fail(k int, err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = fmt.Errorf("op %d: %w", k, err)
	}
}

func (p *phase) report(w io.Writer, label string) {
	fmt.Fprintf(w, "%s: %d ops, %d failed, p50 %.1f us, %.1f ops/s\n",
		label, p.attempted, p.failed, median(p.lat), p.opsPerSecond())
	if p.firstErr != nil {
		fmt.Fprintf(w, "%s: first failure: %v\n", label, p.firstErr)
	}
}

// closedOps is a closed-loop workload: one caller, each op issued when the
// previous one has been answered and checked.
type closedOps interface {
	op(k int, tr *tracer, parent int32) error
	check(k int) error
}

// driveClosed runs ops from k0 until d has passed. Each op is timed on its
// own; its check runs after the clock stops.
func driveClosed(f closedOps, k0 int, d time.Duration, tr *tracer) phase {
	ph := phase{next: k0}
	start := time.Now()
	due := start
	for time.Since(start) < d {
		k := ph.next
		ph.next++
		t0 := time.Now()
		root := tr.begin("op", -1)
		err := f.op(k, tr, root)
		tr.end(root)
		t1 := time.Now()
		ph.attempted++
		ph.busy += t1.Sub(t0)
		ph.late = append(ph.late, us(t0.Sub(due)))
		if err == nil {
			err = f.check(k)
		}
		if err != nil {
			ph.fail(k, err)
		} else {
			ph.lat = append(ph.lat, us(t1.Sub(t0)))
		}
		due = time.Now()
	}
	return ph
}

// warmClosed runs the first n ops of a closed-loop workload untimed.
func warmClosed(f closedOps, n int) error {
	for k := 0; k < n; k++ {
		if err := f.op(k, nil, -1); err != nil {
			return fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return nil
}

// rhsPool draws count right-hand sides of length n from the seed.
func rhsPool(n int, seed int64, count int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]float64, count)
	for c := range pool {
		pool[c] = make([]float64, n)
		for i := range pool[c] {
			pool[c][i] = rng.NormFloat64()
		}
	}
	return pool
}

// compare checks a solution against its reference. The doacross executors
// reproduce sequential substitution's arithmetic order, so only rounding
// noise is tolerated.
func compare(got, want []float64) error {
	if len(got) < len(want) {
		return fmt.Errorf("solution has %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if d := math.Abs(got[i] - w); !(d <= 1e-9*(1+math.Abs(w))) {
			return fmt.Errorf("entry %d is %g, want %g", i, got[i], w)
		}
	}
	return nil
}

// --- trisolve-spe2 --------------------------------------------------------

// rhsCount is the size of the right-hand-side pool the trisolve and serve
// ops cycle through.
const rhsCount = 32

type trisolveFixture struct {
	l, u     *sparse.Triangular
	sl, su   *doacross.Solver
	rhs, ref [][]float64
	mid, out []float64
}

func buildTrisolve(seed int64) (fixture, error) {
	a, err := stencil.Build(stencil.SPE2, seed)
	if err != nil {
		return nil, err
	}
	l, u, err := sparse.ILU0(a)
	if err != nil {
		return nil, err
	}
	f := &trisolveFixture{l: l, u: u, rhs: rhsPool(l.N, seed, rhsCount),
		mid: make([]float64, l.N), out: make([]float64, l.N)}
	if f.sl, err = doacross.NewSolver(l, pinnedAuto()...); err != nil {
		return nil, err
	}
	if f.su, err = doacross.NewSolver(u, pinnedAuto()...); err != nil {
		f.sl.Close()
		return nil, err
	}
	if err := warmClosed(f, warmTrisolve); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *trisolveFixture) prepare() error {
	f.ref = make([][]float64, len(f.rhs))
	for i, b := range f.rhs {
		f.ref[i] = f.u.Solve(f.l.Solve(b, nil), nil)
	}
	return nil
}

func (f *trisolveFixture) op(k int, tr *tracer, parent int32) error {
	s := tr.begin("trisolve.lower", parent)
	_, _, err := f.sl.Solve(f.rhs[k%len(f.rhs)], f.mid)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("trisolve.upper", parent)
	_, _, err = f.su.Solve(f.mid, f.out)
	tr.end(s)
	return err
}

func (f *trisolveFixture) check(k int) error { return compare(f.out, f.ref[k%len(f.ref)]) }

func (f *trisolveFixture) drive(k0 int, d time.Duration, tr *tracer) phase {
	return driveClosed(f, k0, d, tr)
}

func (f *trisolveFixture) layerMetrics(traceSummary, phase, metrics) {}

func (f *trisolveFixture) close() {
	f.sl.Close()
	f.su.Close()
}

// --- cg-7pt ----------------------------------------------------------------

// cgTolerance is the relative residual every CG op must reach.
const cgTolerance = 1e-8

// cgRHSCount is the size of cg-7pt's right-hand-side pool; each needs a
// sequential reference solve, so it is smaller than rhsCount.
const cgRHSCount = 8

type cgFixture struct {
	a       *sparse.CSR
	pre     *sparse.ILUPreconditioner
	release func()
	// lower and upper are the doacross substitutions UseDoacrossILU
	// installed; a traced phase wraps them in spans.
	lower, upper func(*sparse.Triangular, []float64, []float64) []float64
	rhs          [][]float64
	refIters     []int
	x            []float64
	res          krylov.Result

	tr    *tracer // the tracer the substitution hooks record into
	apply int32   // the Apply span in progress
	iters int     // CG iterations of traced ops
	ops   int
}

func buildCG(seed int64) (fixture, error) {
	a, err := stencil.Build(stencil.SevenPoint, seed)
	if err != nil {
		return nil, err
	}
	pre, err := sparse.NewILUPreconditioner(a)
	if err != nil {
		return nil, err
	}
	release, err := doacross.UseDoacrossILU(pre, pinnedAuto()...)
	if err != nil {
		return nil, err
	}
	f := &cgFixture{a: a, pre: pre, release: release, lower: pre.SolveLower, upper: pre.SolveUpper,
		rhs: rhsPool(a.Rows, seed, cgRHSCount), x: make([]float64, a.Rows)}
	if err := warmClosed(f, warmCG); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// prepare records each right-hand side's iteration count under the
// sequential-substitution preconditioner, which the doacross one must match.
func (f *cgFixture) prepare() error {
	seq, err := sparse.NewILUPreconditioner(f.a)
	if err != nil {
		return err
	}
	f.refIters = make([]int, len(f.rhs))
	for i, b := range f.rhs {
		res, err := krylov.CG(f.a, b, make([]float64, f.a.Rows), seq, krylov.Options{Tolerance: cgTolerance})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("reference CG did not converge: %v", res)
		}
		f.refIters[i] = res.Iterations
	}
	return nil
}

// setTracer points the substitution hooks at tr, wrapping each in a span
// that is a child of the Apply in progress.
func (f *cgFixture) setTracer(tr *tracer) {
	f.tr = tr
	if tr == nil {
		f.pre.SolveLower, f.pre.SolveUpper = f.lower, f.upper
		return
	}
	wrap := func(name string, solve func(*sparse.Triangular, []float64, []float64) []float64) func(*sparse.Triangular, []float64, []float64) []float64 {
		return func(t *sparse.Triangular, rhs, y []float64) []float64 {
			s := tr.begin(name, f.apply)
			y = solve(t, rhs, y)
			tr.end(s)
			return y
		}
	}
	f.pre.SolveLower, f.pre.SolveUpper = wrap("trisolve.lower", f.lower), wrap("trisolve.upper", f.upper)
}

// tracedApply is the preconditioner a traced CG op sees: Apply in a span.
type tracedApply struct {
	f      *cgFixture
	parent int32
}

func (p tracedApply) Apply(r, z []float64) []float64 {
	s := p.f.tr.begin("krylov.apply", p.parent)
	p.f.apply = s
	z = p.f.pre.Apply(r, z)
	p.f.tr.end(s)
	return z
}

func (f *cgFixture) op(k int, tr *tracer, parent int32) error {
	if tr != f.tr {
		f.setTracer(tr)
	}
	for i := range f.x {
		f.x[i] = 0
	}
	var m krylov.Preconditioner = f.pre
	s := tr.begin("krylov.cg", parent)
	if tr != nil {
		m = tracedApply{f: f, parent: s}
	}
	res, err := krylov.CG(f.a, f.rhs[k%len(f.rhs)], f.x, m, krylov.Options{Tolerance: cgTolerance})
	tr.end(s)
	f.res = res
	if tr != nil {
		f.iters += res.Iterations
		f.ops++
	}
	return err
}

func (f *cgFixture) check(k int) error {
	want := f.refIters[k%len(f.refIters)]
	if !f.res.Converged || !(f.res.Residual <= cgTolerance) || f.res.Iterations != want {
		return fmt.Errorf("CG %v, want convergence to %g in %d iterations", f.res, cgTolerance, want)
	}
	return nil
}

func (f *cgFixture) drive(k0 int, d time.Duration, tr *tracer) phase {
	f.iters, f.ops = 0, 0
	ph := driveClosed(f, k0, d, tr)
	f.setTracer(nil)
	return ph
}

func (f *cgFixture) layerMetrics(sum traceSummary, _ phase, m metrics) {
	m["krylov.iterations"] = float64(f.iters) / float64(f.ops)
	m["krylov.apply_us"] = sum.meanUs("krylov.apply")
	m["krylov.precond_frac"] = float64(sum.totalNs("krylov.apply")) / float64(sum.totalNs("krylov.cg"))
	m["krylov.self_us"] = sum.selfUs("krylov.cg")
}

func (f *cgFixture) close() { f.release() }

// --- serve-spe2 ------------------------------------------------------------

// serveRate is serve-spe2's Poisson arrival rate in requests per second. On
// a 2-vCPU Xeon host the service saturated near 16000/s (64-column batches,
// solver busy all the time) and was 60% busy at 4000/s, but the host's own
// speed drifted twofold within an hour, and at 4000/s a slow spell queued
// requests for milliseconds. 2000/s keeps that headroom while batches still
// carry several columns through RunMulti.
const serveRate = 2000

// serveWindow and serveMaxBatch configure the service's coalescing.
// serveQueueBound is the intake bound: deep enough that a host stall backs
// requests up instead of refusing them, which the default of 256 did at
// 8000/s.
const (
	serveWindow     = 50 * time.Microsecond
	serveMaxBatch   = 64
	serveQueueBound = 4096
)

// spinBelow is the horizon under which an idle arrival generator spins
// instead of sleeping: with the process idle, a sub-millisecond time.Sleep
// returns a millisecond late, because no running P checks the timer sooner.
const spinBelow = 2 * time.Millisecond

type serveFixture struct {
	l        *sparse.Triangular
	solver   *doacross.Solver
	timer    *batchTimer
	svc      *serve.SolveService
	rhs, ref [][]float64
	arrivals *rand.Rand

	// The last traced phase, for layerMetrics.
	before, after serve.Stats
	window        time.Duration
}

// batchTimer is the BatchSolver the service runs on: the solver, with each
// batch recorded as a span while a tracer is set, and solving raised while a
// batch runs so the arrival generator knows not to spin.
type batchTimer struct {
	s       *doacross.Solver
	solving atomic.Bool
	tr      atomic.Pointer[tracer]
	mu      sync.Mutex
	batches []batchSpan
}

type batchSpan struct{ start, end int64 }

func (b *batchTimer) N() int { return b.s.N() }

func (b *batchTimer) SolveMultiContext(ctx context.Context, B, Y [][]float64) ([][]float64, doacross.Report, error) {
	b.solving.Store(true)
	defer b.solving.Store(false)
	tr := b.tr.Load()
	if tr == nil {
		return b.s.SolveMultiContext(ctx, B, Y)
	}
	start := tr.now()
	Y, rep, err := b.s.SolveMultiContext(ctx, B, Y)
	end := tr.now()
	tr.record("serve.batch", -1, start, end)
	b.mu.Lock()
	b.batches = append(b.batches, batchSpan{start, end})
	b.mu.Unlock()
	return Y, rep, err
}

func buildServe(seed int64) (fixture, error) {
	a, err := stencil.Build(stencil.SPE2, seed)
	if err != nil {
		return nil, err
	}
	l, _, err := sparse.ILU0(a)
	if err != nil {
		return nil, err
	}
	solver, err := doacross.NewSolver(l, pinnedAuto()...)
	if err != nil {
		return nil, err
	}
	timer := &batchTimer{s: solver}
	svc, err := serve.NewSolveService(timer, serve.Options{Window: serveWindow, MaxBatch: serveMaxBatch, QueueBound: serveQueueBound})
	if err != nil {
		solver.Close()
		return nil, err
	}
	f := &serveFixture{l: l, solver: solver, timer: timer, svc: svc,
		rhs: rhsPool(l.N, seed, rhsCount), arrivals: rand.New(rand.NewSource(seed + 1))}
	for k := 0; k < warmServe; k++ {
		if _, err := svc.Solve(context.Background(), f.rhs[k%len(f.rhs)]); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up request %d: %w", k, err)
		}
	}
	return f, nil
}

func (f *serveFixture) prepare() error {
	f.ref = make([][]float64, len(f.rhs))
	for i, b := range f.rhs {
		f.ref[i] = f.l.Solve(b, nil)
	}
	return nil
}

// request is one open-loop request: when it was due, when the generator
// got it into the service, and when its answer arrived.
type request struct {
	k               int
	due, sent, done time.Time
	err             error
}

// drive generates Poisson arrivals for d, each request on its own
// goroutine, and waits for every answer. Latency runs from when a request
// was due, so a generator or service stall is charged to the requests it
// delays.
func (f *serveFixture) drive(k0 int, d time.Duration, tr *tracer) phase {
	f.timer.mu.Lock()
	f.timer.batches = f.timer.batches[:0]
	f.timer.mu.Unlock()
	f.timer.tr.Store(tr)
	f.before = f.svc.Stats()

	// Sized for the expected arrivals plus slack; the generator stops early
	// rather than let the slice move under the request goroutines.
	reqs := make([]request, 0, int(1.25*serveRate*d.Seconds())+64)
	var wg sync.WaitGroup
	start := time.Now()
	offset := 0.0
	for len(reqs) < cap(reqs) {
		offset += f.arrivals.ExpFloat64() / serveRate
		if offset >= d.Seconds() {
			break
		}
		due := start.Add(seconds(offset))
		waitUntil(due, &f.timer.solving)
		reqs = append(reqs, request{k: k0 + len(reqs), due: due})
		wg.Add(1)
		go f.send(&reqs[len(reqs)-1], &wg)
	}
	wg.Wait()
	f.timer.tr.Store(nil)
	f.after = f.svc.Stats()
	f.window = d

	ph := phase{next: k0 + len(reqs), attempted: len(reqs)}
	for i := range reqs {
		r := &reqs[i]
		ph.busy = max(ph.busy, r.done.Sub(start))
		ph.late = append(ph.late, us(r.sent.Sub(r.due)))
		if r.err != nil {
			if errors.Is(r.err, serve.ErrQueueFull) {
				ph.refused++
			}
			ph.fail(r.k, r.err)
			continue
		}
		ph.lat = append(ph.lat, us(r.done.Sub(r.due)))
	}
	if tr != nil {
		f.traceRequests(tr, reqs)
	}
	return ph
}

// waitUntil returns at t. While a batch solves, the generator naps on Go
// timers, which with both Ps busy can wake it a millisecond late; the
// lateness is charged to the request's latency and reported as
// harness.gen_late_p90_us. Spinning there instead would take a P from the
// solver's workers. Otherwise the process may be idle, and the generator
// sleeps while t is far off and spins, yielding, through the last spinBelow.
func waitUntil(t time.Time, solving *atomic.Bool) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		switch {
		case solving.Load():
			// Short naps, so the generator notices the solve ending.
			time.Sleep(min(wait, 50*time.Microsecond))
		case wait > spinBelow:
			time.Sleep(wait - spinBelow)
		default:
			runtime.Gosched()
		}
	}
}

func (f *serveFixture) send(r *request, wg *sync.WaitGroup) {
	defer wg.Done()
	r.sent = time.Now()
	y, err := f.svc.Solve(context.Background(), f.rhs[r.k%len(f.rhs)])
	r.done = time.Now()
	if err == nil {
		err = compare(y, f.ref[r.k%len(f.ref)])
	}
	r.err = err
}

// traceRequests records each answered request as a root span from due to
// answer with three children: the wait for its batch, the batch's solve, and
// the delivery. The root's self time is the generator's lateness. A
// request's batch is the first one to start after it was sent and end
// before it was answered.
func (f *serveFixture) traceRequests(tr *tracer, reqs []request) {
	f.timer.mu.Lock()
	batches := append([]batchSpan(nil), f.timer.batches...)
	f.timer.mu.Unlock()
	for i := range reqs {
		r := &reqs[i]
		if r.err != nil {
			continue
		}
		due, sent, done := tr.at(r.due), tr.at(r.sent), tr.at(r.done)
		bs, be := done, done
		j := sort.Search(len(batches), func(j int) bool { return batches[j].start >= sent })
		if j < len(batches) && batches[j].end <= done {
			bs, be = batches[j].start, batches[j].end
		}
		root := tr.record("serve.request", -1, due, done)
		tr.record("serve.queue", root, sent, bs)
		tr.record("serve.solve", root, bs, be)
		tr.record("serve.deliver", root, be, done)
	}
}

func (f *serveFixture) layerMetrics(sum traceSummary, ph phase, m metrics) {
	batches := f.after.Batches - f.before.Batches
	var reqs uint64
	for k := range f.after.BatchSizes {
		reqs += uint64(k+1) * (f.after.BatchSizes[k] - f.before.BatchSizes[k])
	}
	m["serve.batch_mean"] = float64(reqs) / float64(batches)
	m["serve.batch_solve_us"] = sum.meanUs("serve.batch")
	m["serve.queue_wait_us"] = sum.meanUs("serve.queue")
	m["serve.window_flush_frac"] = float64(f.after.WindowFlushes-f.before.WindowFlushes) / float64(batches)
	m["serve.queue_depth_max"] = float64(f.after.MaxQueueDepth)
	m["serve.queue_full_frac"] = float64(ph.refused) / float64(ph.attempted)
	m["serve.solver_busy_frac"] = float64(sum.totalNs("serve.batch")) / float64(f.window)
}

func (f *serveFixture) close() {
	f.svc.Close()
	f.solver.Close()
}

// --- refine-5pt ------------------------------------------------------------

// editsPerOp is how many rows one refine op edits before it solves.
const editsPerOp = 4

type refineFixture struct {
	l      *sparse.Triangular
	solver *doacross.Solver
	rhs    [][]float64
	out    []float64
	edits  *rowToggler

	// Repair outcomes of traced ops.
	updates, fallbacks, coneSum int
	repair                      time.Duration
}

func buildRefine(seed int64) (fixture, error) {
	a, err := stencil.Build(stencil.FivePoint, seed)
	if err != nil {
		return nil, err
	}
	l, _, err := sparse.ILU0(a)
	if err != nil {
		return nil, err
	}
	solver, err := doacross.NewSolver(l, wavefrontOnly()...)
	if err != nil {
		return nil, err
	}
	f := &refineFixture{l: l, solver: solver, rhs: rhsPool(l.N, seed, rhsCount),
		out: make([]float64, l.N), edits: newRowToggler(l, seed+2)}
	if err := warmClosed(f, warmRefine); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// prepare has nothing to do: every op edits the factor, so its reference is
// computed after it.
func (f *refineFixture) prepare() error { return nil }

func (f *refineFixture) op(k int, tr *tracer, parent int32) error {
	for e := 0; e < editsPerOp; e++ {
		i, cols, vals := f.edits.next()
		s := tr.begin("trisolve.update_row", parent)
		rep, err := f.solver.UpdateRow(i, cols, vals, f.l.Diag[i])
		tr.end(s)
		if err != nil {
			return err
		}
		if tr != nil {
			f.updates++
			f.coneSum += rep.ConeSize
			f.repair += rep.RepairTime
			if !rep.Repaired {
				f.fallbacks++
			}
		}
	}
	s := tr.begin("trisolve.first_solve", parent)
	_, _, err := f.solver.Solve(f.rhs[k%len(f.rhs)], f.out)
	tr.end(s)
	return err
}

// check compares the solve with sequential substitution on the edited
// factor.
func (f *refineFixture) check(k int) error {
	return compare(f.out, f.l.Solve(f.rhs[k%len(f.rhs)], nil))
}

func (f *refineFixture) drive(k0 int, d time.Duration, tr *tracer) phase {
	f.updates, f.fallbacks, f.coneSum, f.repair = 0, 0, 0, 0
	return driveClosed(f, k0, d, tr)
}

func (f *refineFixture) layerMetrics(sum traceSummary, _ phase, m metrics) {
	n := float64(f.updates)
	m["core.repair_us"] = us(f.repair) / n
	m["core.repair_cone"] = float64(f.coneSum) / n
	m["core.repair_fallback_frac"] = float64(f.fallbacks) / n
	m["trisolve.update_row_us"] = sum.meanUs("trisolve.update_row")
	m["trisolve.first_solve_us"] = sum.meanUs("trisolve.first_solve")
}

func (f *refineFixture) close() { f.solver.Close() }

// rowToggler draws refine-5pt's edits: a random row, toggled between its
// factored off-diagonal pattern and that pattern without its last entry, so
// any number of edits keeps the factor well conditioned.
type rowToggler struct {
	rng     *rand.Rand
	origCol [][]int
	origVal [][]float64
	thinned []bool
}

func newRowToggler(t *sparse.Triangular, seed int64) *rowToggler {
	e := &rowToggler{
		rng:     rand.New(rand.NewSource(seed)),
		origCol: make([][]int, t.N),
		origVal: make([][]float64, t.N),
		thinned: make([]bool, t.N),
	}
	for i := 0; i < t.N; i++ {
		e.origCol[i] = append([]int(nil), t.Col[t.RowPtr[i]:t.RowPtr[i+1]]...)
		e.origVal[i] = append([]float64(nil), t.Val[t.RowPtr[i]:t.RowPtr[i+1]]...)
	}
	return e
}

// next returns the row to edit and its new off-diagonal pattern.
func (e *rowToggler) next() (int, []int, []float64) {
	i := e.rng.Intn(len(e.origCol))
	for len(e.origCol[i]) == 0 {
		i = e.rng.Intn(len(e.origCol))
	}
	cols, vals := e.origCol[i], e.origVal[i]
	if !e.thinned[i] {
		cols, vals = cols[:len(cols)-1], vals[:len(vals)-1]
	}
	e.thinned[i] = !e.thinned[i]
	return i, cols, vals
}
