package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"doacross/internal/flags"
	"doacross/internal/sched"
)

// RunBlocked executes the loop with the strip-mined (blocked) variant of
// Section 2.3: the original loop L is transformed into an outer sequential
// loop over contiguous blocks of blockSize iterations and an inner
// preprocessed doacross over each block. Preprocessing and postprocessing run
// before and after every block, so the iter and ready arrays are reused block
// after block; dependencies that cross blocks are automatically satisfied
// because the earlier block's postprocessing has already copied its results
// into y.
//
// The report aggregates the per-block phase times.
func (rt *Runtime) RunBlocked(l *Loop, y []float64, blockSize int) (Report, error) {
	return rt.RunBlockedContext(context.Background(), l, y, blockSize)
}

// RunBlockedContext is RunBlocked with cancellation and failure propagation:
// each block runs through RunContext, so the run is abortable between (and
// inside) the per-block wavefronts exactly like a plain RunContext.
func (rt *Runtime) RunBlockedContext(ctx context.Context, l *Loop, y []float64, blockSize int) (Report, error) {
	if blockSize <= 0 {
		return Report{}, fmt.Errorf("core: block size must be positive, got %d", blockSize)
	}
	if rt.opts.Order != nil {
		return Report{}, fmt.Errorf("core: RunBlocked does not support a reordered execution order")
	}
	if err := rt.checkRunArgs(l, y); err != nil {
		return Report{}, err
	}
	rep := rt.reportFor(l, "blocked")
	start := time.Now()
	for lo := 0; lo < l.N; lo += blockSize {
		hi := lo + blockSize
		if hi > l.N {
			hi = l.N
		}
		sub := &Loop{
			N:      hi - lo,
			Data:   l.Data,
			Writes: func(i int) []int { return l.Writes(lo + i) },
		}
		if l.BodyErr != nil {
			sub.BodyErr = func(i int, v *Values) error { return l.BodyErr(lo+i, v) }
		} else {
			sub.Body = func(i int, v *Values) { l.Body(lo+i, v) }
		}
		if l.Reads != nil {
			sub.Reads = func(i int) []int { return l.Reads(lo + i) }
		}
		// Iteration indices inside the block are shifted to be block-local;
		// because the block runs after all earlier blocks have fully
		// completed (and postprocessed), the relative order inside the block
		// is all that matters for the dependency checks.
		blockRep, err := rt.RunContext(ctx, sub, y)
		if err != nil {
			return Report{}, err
		}
		rep.PreTime += blockRep.PreTime
		rep.ExecTime += blockRep.ExecTime
		rep.PostTime += blockRep.PostTime
		rep.TrueDeps += blockRep.TrueDeps
		rep.SelfDeps += blockRep.SelfDeps
		rep.AntiOrNone += blockRep.AntiOrNone
		rep.WaitPolls += blockRep.WaitPolls
	}
	rep.TotalTime = time.Since(start)
	return rep, nil
}

// LinearSubscript describes a left-hand-side subscript of the form
// a(i) = C*i + D with C != 0, the case Section 2.3 identifies as allowing the
// execution-time preprocessing phase (and the iter array) to be eliminated
// entirely: whether an element e is written by the loop, and by which
// iteration, follows from (e-D) mod C.
type LinearSubscript struct {
	C, D int
}

// Writer returns the iteration that writes element e under the subscript, or
// -1 if no iteration in [0, n) writes it.
func (s LinearSubscript) Writer(e, n int) int {
	if s.C == 0 {
		return -1
	}
	d := e - s.D
	if d%s.C != 0 {
		return -1
	}
	i := d / s.C
	if i < 0 || i >= n {
		return -1
	}
	return i
}

// WritesFunc returns a Writes function for a Loop using this subscript.
func (s LinearSubscript) WritesFunc() func(i int) []int {
	return func(i int) []int { return []int{s.C*i + s.D} }
}

// RunLinear executes the loop with the linear-subscript variant of Section
// 2.3: no inspector runs and no iter array is consulted; the dependency check
// uses the closed-form subscript. The loop's Writes function must agree with
// the subscript (Validate via Loop.Validate as usual). Postprocessing still
// copies results back and resets the ready flags. Like every entry point it
// serializes with the runtime's other runs.
func (rt *Runtime) RunLinear(l *Loop, y []float64, sub LinearSubscript) (Report, error) {
	if sub.C == 0 {
		return Report{}, fmt.Errorf("core: linear subscript requires C != 0")
	}
	if rt.opts.Order != nil {
		// The variant executes positions in natural order; silently dropping a
		// configured doconsider order would misattribute its results.
		return Report{}, fmt.Errorf("core: RunLinear does not support a reordered execution order")
	}
	if err := rt.checkRunArgs(l, y); err != nil {
		return Report{}, err
	}
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	rep := rt.reportFor(l, "linear-subscript")
	start := time.Now()
	ab := &rt.ab
	ab.arm(rt.wakeWaiters())
	// No inspector phase at all — that is the point of the variant.
	rt.runPositions(l.N, rt.execBody(l, y, depCheck{linear: sub, n: l.N, ready: rt.ready}))
	rep.ExecTime = time.Since(start)
	rep.setCounters(sumCounters(rt.counters))

	postStart := time.Now()
	rt.copyBackReady(l, y)
	rep.PostTime = time.Since(postStart)
	rep.TotalTime = time.Since(start)
	if err := ab.firstErr(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// RunDoall executes the loop as a doall: all iterations run concurrently with
// no dependency checks and no synchronization, writing directly into y. It is
// only correct for loops with no cross-iteration dependencies and exists as
// the zero-overhead baseline the paper's odd-L efficiencies are measured
// against. A body failure (BodyErr or Values.Fail) stops the remaining
// iterations and is returned. Like every entry point it serializes with the
// runtime's other runs.
func (rt *Runtime) RunDoall(l *Loop, y []float64) (Report, error) {
	if err := rt.checkRunArgs(l, y); err != nil {
		return Report{}, err
	}
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	rep := rt.reportFor(l, "doall")
	ab := &rt.ab
	ab.arm(nil)
	rt.chk = depCheck{}
	start := time.Now()
	body := func(worker, pos int) {
		if ab.triggered.Load() {
			return
		}
		// Old and new alias y and the zero check knows no writer: no read
		// is classified as a dependence, none waits.
		v := &rt.vals[worker]
		v.reset(&rt.chk, y, y, pos)
		if rt.recs != nil {
			// The doall baseline never consults Writes; fetch it only when
			// the sanitizer needs the declared pattern.
			rt.armAccessCheck(&v.iterState, l, worker, pos, l.Writes(pos))
		}
		err := l.run(pos, v)
		if err == nil {
			err = v.accessViolation()
		}
		if err != nil {
			ab.abort(err)
		}
	}
	rt.runPositions(l.N, body)
	rep.ExecTime = time.Since(start)
	rep.TotalTime = rep.ExecTime
	if err := ab.firstErr(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// RunOracle executes the loop as a classical doacross with a-priori dependency
// knowledge: preds[i] lists the iterations that iteration i must wait for
// (for example from depgraph.Build, computed off line). No iter table is
// consulted and no inspector runs; reads always see the correct value because
// writes still go through the ynew renaming buffer. It quantifies what the
// execution-time checks of the preprocessed doacross cost relative to a
// compile-time doacross that magically knows the dependencies. Like every
// entry point it serializes with the runtime's other runs.
func (rt *Runtime) RunOracle(l *Loop, y []float64, preds [][]int32) (Report, error) {
	if len(preds) != l.N {
		return Report{}, fmt.Errorf("core: oracle dependency list has %d entries for %d iterations", len(preds), l.N)
	}
	if rt.opts.Order != nil {
		// preds is indexed by natural iteration and the executor runs
		// positions in natural order; a configured order would be silently
		// ignored rather than honored.
		return Report{}, fmt.Errorf("core: RunOracle does not support a reordered execution order")
	}
	if err := rt.checkRunArgs(l, y); err != nil {
		return Report{}, err
	}
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	rep := rt.reportFor(l, "oracle")
	start := time.Now()
	done := flags.NewReadyFlags(l.N)
	if rt.opts.WaitStrategy == flags.WaitNotify {
		done.EnableNotify()
	}
	// The oracle executor needs the new values visible to dependent reads; a
	// per-element copy into y after all predecessors finish would race, so it
	// uses the same old/new renaming but classifies reads with a precomputed
	// dense writer index, as a wavefront plan does.
	writer := make([]int32, l.Data)
	for e := range writer {
		writer[e] = -1
	}
	for i := 0; i < l.N; i++ {
		for _, e := range l.Writes(i) {
			writer[e] = int32(i)
		}
	}
	ab := &rt.ab
	wake := rt.wakeWaiters()
	ab.arm(func() {
		if wake != nil {
			wake()
		}
		done.WakeAll()
	})

	iteration := rt.execBody(l, y, depCheck{writer: writer, ready: rt.ready})
	rt.runPositions(l.N, func(worker, i int) {
		for _, p := range preds[i] {
			if _, ok := done.WaitCancel(int(p), rt.opts.WaitStrategy, &ab.triggered); !ok {
				return
			}
		}
		// A failed iteration still releases its dependents: execBody skips
		// every body once the run is aborted.
		iteration(worker, i)
		done.Set(i)
	})
	rep.ExecTime = time.Since(start)
	rep.setCounters(sumCounters(rt.counters))

	postStart := time.Now()
	rt.copyBackReady(l, y)
	rep.PostTime = time.Since(postStart)
	rep.TotalTime = time.Since(start)
	if err := ab.firstErr(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// runPositions runs body over positions 0..n-1 on the pool under the
// runtime's scheduling policy: self-scheduled chunks for Dynamic, the memoized
// static position schedule otherwise. It wakes no more workers than there are
// positions.
func (rt *Runtime) runPositions(n int, body func(worker, pos int)) {
	k := min(rt.opts.Workers, n)
	if rt.opts.Policy == sched.Dynamic {
		chunk := rt.chunk()
		var next atomic.Int64
		rt.pool.Submit(k, func(w int) { sched.DynamicLoop(&next, n, chunk, w, body, nil) })
		return
	}
	s := rt.schedule(n)
	rt.pool.Submit(k, func(w int) {
		for _, pos := range s.Items(0, w) {
			body(w, int(pos))
		}
	})
}

// copyBackReady is the postprocessing phase of the variants without an
// inspector: copy the new values back into y (unless the run aborted, when
// skipped iterations never seeded ynew) and reset the ready flags. No iter
// table entries were recorded, so none are reset.
func (rt *Runtime) copyBackReady(l *Loop, y []float64) {
	aborted := rt.ab.triggered.Load()
	epoch := rt.opts.UseEpochTables
	rt.pool.ParallelFor(l.N, func(i int) {
		for _, e := range l.Writes(i) {
			if !aborted {
				y[e] = rt.ynew[e]
			}
			if !epoch {
				rt.ready.Clear(e)
			}
		}
	})
	if epoch {
		rt.ready.Advance()
	}
}
