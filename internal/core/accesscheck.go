package core

import "fmt"

// This file implements the declared-access sanitizer behind
// Options.AccessCheck: an opt-in shadow check that records, for every
// iteration, which elements the body actually touches through Values and
// diffs them against the iteration's declared access pattern. A body whose
// Writes (or Reads) closure under-declares its accesses is exactly the bug
// class the static analyzers in internal/analyze cannot prove absent — the
// subscripts only exist at run time — and it is silent: the doacross executor
// discovers reads dynamically, so an under-declared loop often produces
// correct results until the wavefront executor (whose schedule is built from
// the declarations) runs it and races. The sanitizer turns that latent race
// into a deterministic, attributed failure on the executor that would have
// been correct.
//
// The check is designed around the cost of not using it: Values carries one
// extra pointer that stays nil unless the run is checked, so the unchecked
// hot path pays a single always-false nil test per accessor and no
// allocation. Checked runs stash the iteration's declared slices in a
// per-worker recorder (no recording buffers, no appends) and verify each
// access eagerly against them; the first violation is carried to the end of
// the body and aborts the run like a body error.

// AccessOp identifies the kind of shared-array access that violated the
// declared pattern.
type AccessOp int

const (
	// AccessRead is a Values.Load outside the declared Reads/Writes sets.
	AccessRead AccessOp = iota
	// AccessReadNew is a Values.LoadNew of an element this iteration does
	// not declare as written — a read of another iteration's in-flight value
	// with no dependency check.
	AccessReadNew
	// AccessWrite is a Values.Store outside the declared Writes set.
	AccessWrite
)

// String names the operation as it appears in diagnostics.
func (op AccessOp) String() string {
	switch op {
	case AccessRead:
		return "Load"
	case AccessReadNew:
		return "LoadNew"
	default:
		return "Store"
	}
}

// AccessError reports a shared-array access that the iteration's declared
// pattern does not cover. It aborts the run the way a body error does and is
// returned from the Run variant that observed it.
type AccessError struct {
	// Iteration is the original iteration index whose body performed the
	// undeclared access.
	Iteration int
	// Element is the shared-array index that was accessed.
	Element int
	// Op is the accessor that touched it.
	Op AccessOp
}

func (e *AccessError) Error() string {
	switch e.Op {
	case AccessRead:
		return fmt.Sprintf("core: access check: iteration %d Loads element %d, which its declared Reads/Writes pattern does not cover", e.Iteration, e.Element)
	case AccessReadNew:
		return fmt.Sprintf("core: access check: iteration %d LoadNews element %d, which its declared Writes pattern does not cover", e.Iteration, e.Element)
	default:
		return fmt.Sprintf("core: access check: iteration %d Stores element %d, which its declared Writes pattern does not cover", e.Iteration, e.Element)
	}
}

// accessRecorder is the per-worker shadow state of one checked iteration: the
// declared access sets and the first violation observed. Declared sets are
// kept as the slices the loop's own closures returned — they are small (one
// to a handful of elements), so eager membership probes are cheaper than
// building a set would be.
type accessRecorder struct {
	iteration  int
	writes     []int
	reads      []int
	checkReads bool
	violation  *AccessError
}

// begin arms the recorder for iteration i. reads is nil (and checkReads
// false) for loops that declare no Reads: such loops rely on the dynamic
// dependency check alone, so only their writes can be misdeclared.
func (r *accessRecorder) begin(i int, writes, reads []int, checkReads bool) {
	r.iteration = i
	r.writes = writes
	r.reads = reads
	r.checkReads = checkReads
	r.violation = nil
}

// fail records the first violation; later ones are dropped, matching the
// first-failure-wins semantics of runAbort.
func (r *accessRecorder) fail(e int, op AccessOp) {
	if r.violation == nil {
		r.violation = &AccessError{Iteration: r.iteration, Element: e, Op: op}
	}
}

func contains(s []int, e int) bool {
	for _, x := range s {
		if x == e {
			return true
		}
	}
	return false
}

// noteLoad checks a Values.Load: the element must appear in the declared
// Reads or the declared Writes (a self-dependence Load of the iteration's own
// write target is legal and need not be re-declared as a read).
func (r *accessRecorder) noteLoad(e int) {
	if !r.checkReads {
		return
	}
	if contains(r.reads, e) || contains(r.writes, e) {
		return
	}
	r.fail(e, AccessRead)
}

// noteLoadNew checks a Values.LoadNew: only the iteration's own declared
// write targets may be read back unsynchronized.
func (r *accessRecorder) noteLoadNew(e int) {
	if !contains(r.writes, e) {
		r.fail(e, AccessReadNew)
	}
}

// noteStore checks a Values.Store against the declared Writes.
func (r *accessRecorder) noteStore(e int) {
	if !contains(r.writes, e) {
		r.fail(e, AccessWrite)
	}
}

// armAccessCheck attaches worker's recorder to s for iteration i when the
// runtime's declared-access sanitizer is on; Values and MultiValues share it.
// writes is the Writes(i) slice the caller has already obtained. reset has
// cleared s.rec, so unchecked runtimes (rt.recs == nil) leave the accessors
// on their no-op path.
func (rt *Runtime) armAccessCheck(s *iterState, l *Loop, worker, i int, writes []int) {
	if rt.recs == nil {
		return
	}
	r := &rt.recs[worker]
	var reads []int
	if l.Reads != nil {
		reads = l.Reads(i)
	}
	r.begin(i, writes, reads, l.Reads != nil)
	s.rec = r
}

// accessViolation returns the iteration's first undeclared access, nil when
// the iteration was unchecked or clean. Called after the body returns, so one
// iteration's diff costs one pointer test on the unchecked path.
func (s *iterState) accessViolation() error {
	if s.rec == nil || s.rec.violation == nil {
		return nil
	}
	return s.rec.violation
}
