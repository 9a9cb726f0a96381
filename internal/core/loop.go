// Package core implements the paper's primary contribution: the preprocessed
// doacross loop (Saltz & Mirchandaney, ICASE Interim Report 11, 1990).
//
// A Loop describes a loop whose iterations read and write elements of a
// shared float64 array through subscripts that are only known at run time.
// The runtime executes it in three phases, exactly as in the paper:
//
//  1. Inspect (preprocessing, fully parallel): record in the iter table which
//     iteration writes each array element (iter[a(i)] = i, everything else
//     MAXINT).
//  2. Execute: run the iterations concurrently. Every right-hand-side read
//     consults the iter table; reads of elements produced by an earlier
//     iteration busy-wait on the element's ready flag and then use the newly
//     computed value (ynew), reads of elements produced by a later iteration
//     or by no iteration use the old value (y), so anti-dependencies are
//     satisfied by renaming.
//  3. Postprocess (fully parallel): copy the newly computed elements back
//     into y and reset the iter/ready entries that were used, so the scratch
//     arrays can be reused by the next doacross loop.
//
// The package also provides the paper's Section 2.3 variants (the
// strip-mined/blocked doacross and the linear-subscript doacross that needs
// no inspector), plus baselines: the sequential loop every result is checked
// against, and the doall and the oracle doacross (a-priori dependences),
// which tests and benchmarks run but no experiment does.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"doacross/internal/flags"
)

// Loop describes a runtime-dependent loop over a shared data array.
//
// The description separates what the compiler's symbolic transformation would
// know statically (N, the shape of the body) from what only exists at run
// time (the index arrays consulted by Writes and the subscripts the body
// computes).
type Loop struct {
	// N is the number of iterations (the original loop runs i = 0..N-1).
	N int
	// Data is the length of the shared array y the loop reads and writes.
	Data int
	// Writes returns the data elements written by iteration i (the paper's
	// a(i); usually a single element). The preprocessed doacross assumes no
	// output dependencies: no element may be written by two different
	// iterations.
	Writes func(i int) []int
	// Reads returns the data elements iteration i may read. The default
	// (doacross) executor discovers reads dynamically through Values.Load,
	// exactly as the paper's transformed loop does, and never consults
	// Reads; analysis layers (dependency graph construction, the machine
	// simulator, the doconsider reordering) and the wavefront/auto executors
	// do. For those consumers Reads is a correctness contract, not a hint:
	// it must cover every element the body may Load (over-declaring is safe,
	// it only adds conservative edges). An under-declared read makes a
	// doconsider order or a wavefront level placement unsound — the
	// pre-scheduled executor would then run a reader concurrently with (or
	// before) its writer and silently produce wrong values. Reads may be nil
	// when no analysis and no pre-scheduled execution is needed.
	Reads func(i int) []int
	// Body executes iteration i. All accesses to the shared array must go
	// through v: v.Load(e) performs the execution-time dependency check and
	// returns the correct (old or new) value; v.Store(e, x) writes the new
	// value. The runtime marks the elements in Writes(i) as ready after Body
	// returns.
	Body func(i int, v *Values)
	// BodyErr is the error-returning variant of Body. A non-nil return aborts
	// the run: no further iterations start, waiting iterations are released,
	// and Runtime.Run returns the error (the first one reported). At most one
	// of Body and BodyErr may be set, and a loop must define at least one body
	// variant (Body, BodyErr or BodyMulti). A body that cannot change its
	// signature may call v.Fail(err) instead, which has the same effect.
	BodyErr func(i int, v *Values) error
	// BodyMulti executes iteration i against a block of right-hand-side
	// columns at once: v gives row-at-a-time access to the block (one
	// dependency check per element covers all columns), and Runtime.RunMulti
	// is the entry point that arms it. A loop may define BodyMulti alongside
	// Body/BodyErr — scalar runs use the scalar body, RunMulti uses this one
	// — or define only BodyMulti for loops that are exclusively run blocked.
	// Failures are reported through v.Fail.
	BodyMulti func(i int, v *MultiValues)
}

// run dispatches to whichever body variant the loop defines and returns the
// iteration's failure (BodyErr result or Values.Fail record), nil on success.
func (l *Loop) run(i int, v *Values) error {
	if l.BodyErr != nil {
		if err := l.BodyErr(i, v); err != nil {
			return err
		}
		return v.failErr
	}
	l.Body(i, v)
	return v.failErr
}

// validateScratch pools the writer-index scratch slices used by Validate, so
// repeated loop construction (an iterative driver building a solver per
// matrix) does not allocate a fresh O(Data) table every time.
var validateScratch sync.Pool

// Validate checks the structural requirements of the preprocessed doacross:
// sane sizes and no output dependencies between iterations.
func (l *Loop) Validate() error {
	if l.N < 0 {
		return fmt.Errorf("core: negative iteration count %d", l.N)
	}
	if l.Data < 0 {
		return fmt.Errorf("core: negative data length %d", l.Data)
	}
	if l.Writes == nil {
		return fmt.Errorf("core: Loop requires Writes")
	}
	if l.Body != nil && l.BodyErr != nil {
		return fmt.Errorf("core: Loop defines both Body and BodyErr; set at most one")
	}
	if l.Body == nil && l.BodyErr == nil && l.BodyMulti == nil {
		return fmt.Errorf("core: Loop requires a body (Body, BodyErr or BodyMulti)")
	}
	// The duplicate-writer check uses a scratch slice indexed by element
	// (value = writing iteration + 1, zero = unwritten) instead of a
	// map[int]int: one pooled allocation and O(1) probes instead of N map
	// insertions. The slice is materialized lazily — as long as every
	// iteration writes exactly its own index (the identity subscript of the
	// triangular solves, by far the most common loop), identity writes cannot
	// collide with each other and only the bounds check is needed, so
	// repeated solver construction does no table work at all.
	var scratch *[]int
	var writer []int
	var verr error
scan:
	for i := 0; i < l.N; i++ {
		ws := l.Writes(i)
		if writer == nil {
			if len(ws) == 1 && ws[0] == i {
				// Identity fast path: each prefix iteration writes exactly
				// its own index, so prefix writes cannot collide with each
				// other and only the bounds check is needed.
				if i >= l.Data {
					verr = fmt.Errorf("core: iteration %d writes element %d outside data length %d", i, i, l.Data)
					break scan
				}
				continue
			}
			scratch, writer = l.writerScratch(i)
		}
		for _, e := range ws {
			if e < 0 || e >= l.Data {
				verr = fmt.Errorf("core: iteration %d writes element %d outside data length %d", i, e, l.Data)
				break scan
			}
			if prev := writer[e]; prev != 0 && prev != i+1 {
				verr = fmt.Errorf("core: output dependency: element %d written by iterations %d and %d", e, prev-1, i)
				break scan
			}
			writer[e] = i + 1
		}
	}
	if scratch != nil {
		*scratch = writer[:cap(writer)]
		validateScratch.Put(scratch)
	}
	return verr
}

// writerScratch returns a zeroed writer-index slice of length l.Data from the
// pool, pre-seeded with the identity writes of iterations 0..upto-1 (the
// prefix the fast path already accepted, each of which wrote exactly element
// j at iteration j, before a non-identity iteration forced the table to
// materialize). The returned pointer is the pool box to Put the slice back
// through.
func (l *Loop) writerScratch(upto int) (*[]int, []int) {
	p, _ := validateScratch.Get().(*[]int)
	var writer []int
	if p != nil && cap(*p) >= l.Data {
		writer = (*p)[:l.Data]
		clear(writer)
	} else {
		if p == nil {
			p = new([]int)
		}
		writer = make([]int, l.Data)
	}
	for j := 0; j < upto; j++ {
		writer[j] = j + 1
	}
	return p, writer
}

// Values gives a loop body access to the shared array with the paper's
// execution-time dependency checks. A Values is specific to one iteration of
// one run and must not be retained after the body returns. It shares its
// per-iteration state, and the Iteration, Waits and Fail accessors, with
// MultiValues; Load is the one-element case of MultiValues.LoadRow on the
// same state.
type Values struct{ iterState }

// iterState is the per-iteration state behind Values and MultiValues: the
// run's dependence check, the old and new arrays (one value per element, or
// one row per element for a MultiValues, whose row width is set per block),
// the failure record, the access recorder and the dependency counters. The
// check and the arrays are per run, the rest per iteration. One reset, one
// classification (fresh), one access-check arming and one violation test
// serve both handles. Its size is the per-worker Values stride: padded to 128
// bytes, two cache lines, so no line holds two workers' Values and a
// worker's counter increments never evict the check pointer its neighbour
// reads on every Load. Keep fields that are constant for a run behind chk.
type iterState struct {
	chk *depCheck
	old []float64
	new []float64
	i   int
	// failErr records a failure reported through Fail (or a cancelled wait);
	// the runtime aborts the run when the body returns with it set.
	failErr error
	// rec, when non-nil, is the declared-access sanitizer's shadow recorder
	// (Options.AccessCheck): every accessor reports the touched element to it
	// for diffing against the iteration's declared pattern. It is nil on
	// unchecked runs, so the accessors pay one predictable nil test.
	rec *accessRecorder
	// counters for tracing
	waits      int
	truedeps   int
	selfdeps   int
	antiOrNone int
	_          [8]byte
}

// reset arms the state for iteration i. The fields are assigned one by one:
// a single struct-literal assignment compiles to a bulk typed copy that costs
// measurably more on this per-iteration path.
func (s *iterState) reset(chk *depCheck, old, new []float64, i int) {
	s.chk = chk
	s.old = old
	s.new = new
	s.i = i
	s.failErr = nil
	s.rec = nil
	s.waits = 0
	s.truedeps = 0
	s.selfdeps = 0
	s.antiOrNone = 0
}

// depCheck is one run's execution-time dependence check, statements S3–S8
// of the paper's Figure 5: find the iteration that writes an element, compare
// it with the reading iteration, and wait on the element's ready flag when
// the writer is earlier. Every worker's iterState points at the runtime's one
// copy for the run.
type depCheck struct {
	// The writer source: a plan's dense writer index (the wavefronts and
	// RunOracle; -1 means no writer), else the doacross's inspector-filled
	// iter table, else RunLinear's subscript over n iterations. The zero
	// value knows no writer, so every read sees the old array, which is all
	// the runs that alias old and new need (RunSequential,
	// RunSequentialMulti, RunDoall).
	writer []int32
	iter   *flags.IterTable
	linear LinearSubscript
	n      int
	// ready is what a true dependence waits on; nil after a level barrier,
	// which has already produced every earlier writer's element.
	ready    *flags.ReadyFlags
	strategy flags.WaitStrategy
	// cancel, when non-nil, is the run's abort flag: waits on unsatisfied
	// true dependencies give up once it is set, so an aborted run can never
	// deadlock on an iteration that will not execute.
	cancel *atomic.Bool
}

// writerOf returns the iteration that writes element e, or flags.MaxInt if
// none does.
func (c *depCheck) writerOf(e int) int64 {
	switch {
	case c.writer != nil:
		if w := c.writer[e]; w >= 0 {
			return int64(w)
		}
	case c.iter != nil:
		return c.iter.Writer(e)
	case c.linear.C != 0:
		if w := c.linear.Writer(e, c.n); w >= 0 {
			return int64(w)
		}
	}
	return flags.MaxInt
}

// fresh classifies a read of element e by the iteration and counts it: a
// true dependence waits for its writer and reads the new array, a self
// dependence reads the new array at once, and an anti-dependence or an
// unwritten element reads the old one. It reports whether the read sees the
// new array. A wait cut short by the run's abort reads the old array; the
// aborted run's result is discarded, so that value is never observed.
func (s *iterState) fresh(e int) bool {
	c := s.chk
	w, i := c.writerOf(e), int64(s.i)
	switch {
	case w < i:
		s.truedeps++
		if c.ready == nil {
			return true
		}
		polls, ok := c.ready.WaitCancel(e, c.strategy, c.cancel)
		s.waits += polls
		return ok
	case w == i:
		s.selfdeps++
		return true
	}
	s.antiOrNone++
	return false
}

// Iteration returns the original index of the iteration the body is
// executing. Bodies that need the index receive it as an argument as well;
// this accessor exists for helper code shared between bodies.
func (s *iterState) Iteration() int { return s.i }

// Load returns the value of element e as the original sequential loop would
// have observed it at this iteration: if e is written by an earlier
// iteration, Load waits for that iteration and returns the newly computed
// value; if e is written by this iteration, it returns the newly computed
// value without waiting; otherwise it returns the old value.
//
// Load implements statements S3–S8 of the paper's Figure 5.
//
// When the run has been aborted (context cancelled, another iteration failed
// or panicked), a Load that would have to wait returns the old value
// immediately instead of waiting for an iteration that will never execute;
// the run's result is discarded in that case, so the stale value is never
// observed by the caller.
func (v *Values) Load(e int) float64 {
	if v.rec != nil {
		v.rec.noteLoad(e)
	}
	if v.fresh(e) {
		return v.new[e]
	}
	return v.old[e]
}

// LoadOld returns the value element e had before the loop started, without
// any dependency check. Bodies use it for elements that are known never to be
// written by the loop. Because the old array is immutable for the duration of
// the executor phase, LoadOld can never race and the declared-access
// sanitizer does not require it to be declared.
func (v *Values) LoadOld(e int) float64 { return v.old[e] }

// LoadNew returns the in-progress new value of element e without any
// dependency check or wait. It is intended for a body reading back an element
// it has itself written during this iteration (the paper's ynew(a(i))
// accumulation in Figure 5); the declared-access sanitizer therefore requires
// e to be one of the iteration's declared write targets.
func (v *Values) LoadNew(e int) float64 {
	if v.rec != nil {
		v.rec.noteLoadNew(e)
	}
	return v.new[e]
}

// Store writes the new value of element e. The element only becomes visible
// to other iterations once the runtime marks it ready after the body returns.
func (v *Values) Store(e int, x float64) {
	if v.rec != nil {
		v.rec.noteStore(e)
	}
	v.new[e] = x
}

// Waits reports how many polling steps this iteration spent waiting on
// unsatisfied true dependencies.
func (s *iterState) Waits() int { return s.waits }

// Fail marks this iteration — and therefore the whole run — as failed. The
// runtime stops starting new iterations, releases waiting ones, restores the
// scratch state and returns err (the first failure reported wins). It is the
// escape hatch for bodies whose signature cannot change; new code should use
// Loop.BodyErr. A nil err is ignored.
func (s *iterState) Fail(err error) {
	if err != nil && s.failErr == nil {
		s.failErr = err
	}
}

// RunSequential executes the loop exactly as the original (untransformed)
// sequential loop would, applying all writes in iteration order directly to
// y. It is the reference the doacross results are compared against and the
// T_seq used in parallel-efficiency calculations. A BodyErr failure (or
// Values.Fail) stops the loop at the failing iteration and is returned.
func RunSequential(l *Loop, y []float64) error {
	if len(y) < l.Data {
		return fmt.Errorf("core: data slice length %d shorter than loop data length %d", len(y), l.Data)
	}
	if l.Body == nil && l.BodyErr == nil {
		return fmt.Errorf("core: loop has neither Body nor BodyErr")
	}
	// Old and new alias y and the zero check knows no writer, so every Load
	// returns the current contents of y, which already reflect all earlier
	// writes.
	v, chk := &Values{}, &depCheck{}
	for i := 0; i < l.N; i++ {
		v.reset(chk, y, y, i)
		if err := l.run(i, v); err != nil {
			return err
		}
	}
	return nil
}
