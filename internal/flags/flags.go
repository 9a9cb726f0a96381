// Package flags provides the fine-grained synchronization substrate used by
// the preprocessed doacross runtime: per-element "ready" flags that iterations
// busy-wait on, and the "iter" table the inspector fills so that executors can
// distinguish true dependencies from anti-dependencies at run time.
//
// The package mirrors the arrays called ready and iter in Saltz &
// Mirchandaney, "The Preprocessed Doacross Loop" (ICASE Interim Report 11,
// 1990). A runtime holds one ReadyFlags and one IterTable, and either type
// supports two reset protocols between loops. The paper's protocol resets,
// in the postprocessing phase, every entry the loop wrote (IterTable.Reset,
// ReadyFlags.Clear). The epoch protocol, an ablation of the paper's design,
// calls Advance once instead, which invalidates every entry in O(1). The two
// protocols share one storage format and one wait loop, so they classify and
// wait identically.
package flags

import (
	"math"
	"runtime"
	"sync/atomic"
)

// MaxInt is the sentinel an iter table reports for elements that are never
// written inside the loop. It corresponds to MAXINT in the paper.
const MaxInt int64 = math.MaxInt64

// WaitStrategy selects how an executor waits for a ready flag that has not
// been set yet. The paper uses a pure busy wait; the other strategies are
// provided so the cost of that choice can be measured.
type WaitStrategy int

const (
	// WaitSpin busy-waits on the flag, exactly as in the paper.
	WaitSpin WaitStrategy = iota
	// WaitSpinYield busy-waits but yields the processor to the Go scheduler
	// between polls. This is the default: it keeps the point-to-point
	// semantics of the paper while remaining safe when the number of workers
	// exceeds the number of hardware threads.
	WaitSpinYield
	// WaitNotify parks the waiter on a sharded condition variable and is
	// woken by the writer. It trades per-write broadcast cost for zero
	// spinning.
	WaitNotify
)

// String returns a short human-readable name for the strategy.
func (w WaitStrategy) String() string {
	switch w {
	case WaitSpin:
		return "spin"
	case WaitSpinYield:
		return "spin+yield"
	case WaitNotify:
		return "notify"
	default:
		return "unknown"
	}
}

// ReadyFlags is the shared array of per-element completion flags: element e
// is done (the paper's DONE) once the value of the target array at index e
// has been produced by its writing iteration, and not done (NOTDONE)
// otherwise.
//
// A slot is done when it holds the array's current epoch. The epoch stays 1
// under the paper's protocol, where Set stores 1 and Clear stores 0; under
// the epoch protocol Advance moves it on, so every slot set before reads as
// not done without being touched. The epoch is never 0, the value of a
// cleared slot.
//
// The zero value is not usable; construct with NewReadyFlags.
type ReadyFlags struct {
	epoch atomic.Uint32
	flags []atomic.Uint32
	// notify support (only used with WaitNotify)
	notifier *notifier
}

// NewReadyFlags creates a flag array of the given length with every element
// not done.
func NewReadyFlags(n int) *ReadyFlags {
	r := &ReadyFlags{flags: make([]atomic.Uint32, n)}
	r.epoch.Store(1)
	return r
}

// Len reports the number of elements covered by the flag array.
func (r *ReadyFlags) Len() int { return len(r.flags) }

// EnableNotify attaches the sharded notifier needed by WaitNotify. It is a
// no-op if notification support is already enabled.
func (r *ReadyFlags) EnableNotify() {
	if r.notifier == nil {
		r.notifier = newNotifier()
	}
}

// Set marks element e as produced. The store uses release semantics, so a
// waiter that observes it also observes the data written before the Set.
func (r *ReadyFlags) Set(e int) {
	r.flags[e].Store(r.epoch.Load())
	if r.notifier != nil {
		r.notifier.wake(e)
	}
}

// IsDone reports whether element e has been produced.
func (r *ReadyFlags) IsDone(e int) bool { return r.flags[e].Load() == r.epoch.Load() }

// Clear marks element e as not produced. The paper's postprocessing phase
// clears every element the loop wrote so the array can be reused by the next
// doacross loop.
func (r *ReadyFlags) Clear(e int) { r.flags[e].Store(0) }

// ClearAll marks every element as not produced. Unlike the per-element Clear
// of the paper's postprocessing loop, it touches the whole array.
func (r *ReadyFlags) ClearAll() {
	for i := range r.flags {
		r.flags[i].Store(0)
	}
}

// Advance is the epoch protocol's reset: every element becomes not produced
// in O(1), without touching the array. When the 32-bit epoch wraps, slots
// set 2^32 loops ago would read as done again, so the wrap clears the whole
// array once. Advance must not run concurrently with the array's other
// methods; the runtime calls it between loops.
func (r *ReadyFlags) Advance() {
	if r.epoch.Add(1) == 0 {
		r.ClearAll()
		r.epoch.Store(1)
	}
}

// spinBeforeYield is the number of tight polls performed before the waiter
// starts yielding to the scheduler under WaitSpinYield.
const spinBeforeYield = 64

// Wait blocks until element e is produced, using the given strategy. It
// returns the number of polls that were required (0 if the flag was already
// set), which the tracing layer uses as a proxy for wait time.
func (r *ReadyFlags) Wait(e int, strategy WaitStrategy) int {
	polls, _ := r.WaitCancel(e, strategy, nil)
	return polls
}

// WaitCancel is Wait with a cancellation flag: it returns ok=false as soon as
// cancelled becomes true while the element is still unproduced, so an
// executor waiting on an iteration that will never run (because the run was
// aborted) does not wait forever. A nil cancelled never cancels. Callers
// that park waiters with WaitNotify must call WakeAll after setting
// cancelled, or parked waiters will not observe it.
func (r *ReadyFlags) WaitCancel(e int, strategy WaitStrategy, cancelled *atomic.Bool) (polls int, ok bool) {
	done := r.epoch.Load()
	if r.flags[e].Load() == done {
		return 0, true
	}
	switch strategy {
	case WaitSpin:
		for r.flags[e].Load() != done {
			if cancelled != nil && cancelled.Load() {
				return polls, false
			}
			polls++
		}
		return polls, true
	case WaitNotify:
		if r.notifier == nil {
			// Fall back to yielding spin rather than panicking: the
			// semantics are identical, only the cost differs.
			return r.waitSpinYield(e, done, cancelled)
		}
		polls = r.notifier.wait(e, func() bool {
			return r.flags[e].Load() == done || (cancelled != nil && cancelled.Load())
		})
		return polls, r.flags[e].Load() == done
	default:
		return r.waitSpinYield(e, done, cancelled)
	}
}

func (r *ReadyFlags) waitSpinYield(e int, done uint32, cancelled *atomic.Bool) (polls int, ok bool) {
	for r.flags[e].Load() != done {
		if cancelled != nil && cancelled.Load() {
			return polls, false
		}
		polls++
		if polls > spinBeforeYield {
			runtime.Gosched()
		}
	}
	return polls, true
}

// WakeAll releases every waiter parked by the WaitNotify strategy so it can
// re-check its predicate (and observe a cancellation). It is a no-op when
// notification support is not enabled.
func (r *ReadyFlags) WakeAll() {
	if r.notifier != nil {
		r.notifier.wakeAll()
	}
}

// IterTable is the execution-time dependency table filled by the inspector:
// entry e names the (original) index of the loop iteration that writes
// element e, or MaxInt if no iteration writes it.
//
// A slot stores base+i for a write by iteration i and 0 once reset; a slot
// below base reads as never written. The base stays 1 under the paper's
// protocol, which resets every written entry after the loop, so any
// iteration index is representable. Under the epoch protocol Advance raises
// the base by 2^32, past every slot recorded since the previous Advance, so
// iterations recorded between two Advances must be below 2^32.
//
// The zero value is not usable; construct with NewIterTable.
type IterTable struct {
	base atomic.Int64
	iter []atomic.Int64
}

// epochStride is how far Advance raises an IterTable's base: one more than
// the largest iteration the epoch protocol can record.
const epochStride = 1 << 32

// NewIterTable creates a table of the given length with every entry never
// written.
func NewIterTable(n int) *IterTable {
	t := &IterTable{iter: make([]atomic.Int64, n)}
	t.base.Store(1)
	return t
}

// Len reports the number of elements covered by the table.
func (t *IterTable) Len() int { return len(t.iter) }

// Record stores that element e is written by iteration i. The inspector calls
// Record concurrently from many workers; the paper assumes no output
// dependencies (each element is written by at most one iteration), so
// concurrent Records never target the same element.
func (t *IterTable) Record(e int, i int) { t.iter[e].Store(t.base.Load() + int64(i)) }

// Writer returns the iteration that writes element e, or MaxInt if none does.
func (t *IterTable) Writer(e int) int64 {
	v, base := t.iter[e].Load(), t.base.Load()
	if v < base {
		return MaxInt
	}
	return v - base
}

// Reset restores element e to never written. The paper's postprocessing
// calls Reset for every element the loop wrote so the table can be reused.
func (t *IterTable) Reset(e int) { t.iter[e].Store(0) }

// ResetAll restores every element to never written.
func (t *IterTable) ResetAll() {
	for i := range t.iter {
		t.iter[i].Store(0)
	}
}

// Advance is the epoch protocol's reset: every entry becomes never written in
// O(1), without touching the table. When the base would overflow, Advance
// resets the whole table once and starts the base over. Advance must not run
// concurrently with the table's other methods; the runtime calls it between
// loops.
func (t *IterTable) Advance() {
	if b := t.base.Load(); b <= MaxInt-2*epochStride {
		t.base.Store(b + epochStride)
		return
	}
	t.ResetAll()
	t.base.Store(1)
}

// Dependence classifies the relation between a read of element e performed by
// iteration i and the iteration that writes e, following Section 2.2 of the
// paper.
type Dependence int

const (
	// TrueDep means the element is written by an earlier iteration: the
	// reader must wait for it and then use the newly computed value.
	TrueDep Dependence = iota
	// SelfDep means the element is written by the same iteration: the reader
	// uses the newly computed value without waiting.
	SelfDep
	// AntiOrNone means the element is written by a later iteration (an
	// anti-dependence, satisfied by renaming) or not written at all: the
	// reader uses the old value without waiting.
	AntiOrNone
)

// String returns a short name for the dependence class.
func (d Dependence) String() string {
	switch d {
	case TrueDep:
		return "true"
	case SelfDep:
		return "self"
	case AntiOrNone:
		return "anti/none"
	default:
		return "unknown"
	}
}

// Classify applies the paper's check = iter(offset) - i test: it returns the
// dependence class of a read of element e by iteration i, together with the
// writing iteration (meaningful only for TrueDep and SelfDep).
func (t *IterTable) Classify(e int, i int) (Dependence, int64) {
	w := t.Writer(e)
	switch {
	case w < int64(i):
		return TrueDep, w
	case w == int64(i):
		return SelfDep, w
	default:
		return AntiOrNone, w
	}
}
