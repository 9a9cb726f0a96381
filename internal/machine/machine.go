// Package machine is a deterministic discrete-event simulator of a
// shared-memory multiprocessor executing a (preprocessed) doacross schedule.
//
// The paper's measurements were taken on a 16-processor Encore Multimax/320;
// this substrate replaces that machine. Three execution models are
// simulated, mirroring the three executors of the live runtime (package
// core) and the three arms of its Auto selection (package tune):
//
// The busy-wait doacross (Simulate) replays a given iteration-to-processor
// assignment with an explicit cost model — per-iteration base work,
// per-read-term work, per-read dependency-check overhead, fixed
// per-iteration executor overhead, and the parallel
// preprocessing/postprocessing phases — and charges every true-dependency
// wait as busy time on the waiting processor, exactly as the paper's
// busy-wait implementation does. Two wait models are supported: the coarse
// model charges all dependency waits at the start of an iteration, while the
// fine model (Config.ReadPreds) interleaves waits with the iteration's inner
// loop, each right-hand-side read waiting for its producer only when the
// executor reaches that term (statements S3–S5 of the paper's Figure 5) —
// this partial overlap is what lets a natural-order doacross extract speedup
// even from rows that depend on their immediate predecessor.
//
// The pre-scheduled wavefront execution (SimulateWavefront) decomposes the
// dependency graph into wavefront levels and runs each level as a statically
// scheduled doall with a barrier between levels: no flags are checked and
// nothing ever busy-waits, but every level pays one barrier and within-level
// imbalance shows up as idle time at that barrier. Its per-iteration
// overhead (WavefrontCosts.IterOverhead) replaces the doacross
// CheckPerRead/IterOverhead charges. The dynamic within-level wavefront
// (SimulateDynamicWavefront) runs the same levels but self-schedules each
// one in chunks, paying WavefrontCosts.Claim per chunk claim. Both wavefront
// models share one level replay.
//
// SimulateTuning drives the online tuner's state machine (package tune)
// against a fixed per-executor ground truth, the deterministic counterpart
// of a live tuned runtime.
//
// The output of every execution model is the parallel time, the sequential
// time and the parallel efficiency T_seq / (p * T_par) the paper reports. The
// simulator is deterministic and independent of the host's core count, which
// is what lets the experiments reproduce the paper's 16-processor curves on
// any machine; the live runtime in package core provides the real-execution
// counterpart.
package machine

import (
	"fmt"
	"math"

	"doacross/internal/depgraph"
	"doacross/internal/sched"
)

// CostModel assigns abstract time units to the different activities of a
// doacross execution. The absolute scale is arbitrary (the paper's numbers
// are milliseconds on 1990 hardware); only ratios matter for efficiency.
type CostModel struct {
	// BaseWork returns the useful work of iteration i that is independent of
	// its right-hand-side reads (e.g. "y(i) = rhs(i)" in Figure 7).
	BaseWork func(i int) float64
	// TermWork is the useful work of one right-hand-side read term (the
	// multiply-add of Figures 4 and 7).
	TermWork float64
	// ReadsPerIter returns the number of right-hand-side reads iteration i
	// performs. Each contributes TermWork to the useful work and
	// CheckPerRead to the doacross overhead.
	ReadsPerIter func(i int) int
	// CheckPerRead is the executor's per-read overhead: the iter-table
	// lookup and branch of Figure 5 (statements S3/S6).
	CheckPerRead float64
	// IterOverhead is the fixed per-iteration executor overhead: seeding
	// ynew, setting the ready flag, loop bookkeeping.
	IterOverhead float64
	// PrePerIter is the inspector cost per iteration; the inspector is a
	// fully parallel loop, so its elapsed time is ceil(N/P)*PrePerIter.
	PrePerIter float64
	// PostPerIter is the postprocessing cost per iteration, parallelized the
	// same way.
	PostPerIter float64
}

// IterWork returns the useful (sequential) work of iteration i: base work
// plus one term of work per read. It is the only component that counts
// toward T_seq.
func (cm CostModel) IterWork(i int) float64 {
	reads := 0
	if cm.ReadsPerIter != nil {
		reads = cm.ReadsPerIter(i)
	}
	base := 0.0
	if cm.BaseWork != nil {
		base = cm.BaseWork(i)
	}
	return base + cm.TermWork*float64(reads)
}

// UniformCost returns a cost model with constant per-iteration base work and
// read count, convenient for tests.
func UniformCost(base, termWork float64, reads int, check, overhead, pre, post float64) CostModel {
	return CostModel{
		BaseWork:     func(int) float64 { return base },
		TermWork:     termWork,
		ReadsPerIter: func(int) int { return reads },
		CheckPerRead: check,
		IterOverhead: overhead,
		PrePerIter:   pre,
		PostPerIter:  post,
	}
}

// Config describes one simulated execution.
type Config struct {
	// Processors is the number of processors (the paper uses 16).
	Processors int
	// Policy assigns execution positions to processors.
	Policy sched.Policy
	// Order maps execution position to original iteration index; nil means
	// natural order. It must be a topological order of the dependency graph.
	Order []int
	// ReadPreds enables the fine-grained wait model: ReadPreds(i) returns,
	// for each right-hand-side read of iteration i in intra-iteration order,
	// the original index of the iteration producing the value, or -1 when
	// the read has no true dependency. The slice length must equal
	// ReadsPerIter(i). When nil, all waits are charged at iteration start.
	ReadPreds func(i int) []int32
	// SkipInspector omits the preprocessing phase (the linear-subscript
	// variant of Section 2.3).
	SkipInspector bool
	// SkipChecks omits the per-read dependency-check overhead (the oracle /
	// compile-time doacross baseline).
	SkipChecks bool
	// SkipPostprocess omits the postprocessing phase (single-use scratch
	// arrays, or the epoch-table variant whose reset is O(1)).
	SkipPostprocess bool
	// SkipOverheads omits CheckPerRead, IterOverhead and both doall phases
	// entirely: the ideal doall / compile-time-parallelized baseline.
	SkipOverheads bool
}

// Result summarizes one simulated execution.
type Result struct {
	Processors int
	Iterations int
	// TSeq is the simulated optimized sequential time (sum of iteration
	// work, no overheads).
	TSeq float64
	// TPar is the simulated parallel time, including preprocessing,
	// dependency waits, check overheads and postprocessing.
	TPar float64
	// PreTime and PostTime are the elapsed times of the two doall phases.
	PreTime, PostTime float64
	// ExecTime is the elapsed time of the executor phase alone.
	ExecTime float64
	// WaitTime is the total busy-wait time summed over processors.
	WaitTime float64
	// OverheadTime is the total per-iteration and per-read overhead summed
	// over processors.
	OverheadTime float64
	// Speedup is TSeq / TPar.
	Speedup float64
	// Efficiency is TSeq / (Processors * TPar), the paper's definition.
	Efficiency float64
	// CriticalPath is the weighted critical path of the dependency graph
	// under the executor's per-iteration cost (work + overheads): a lower
	// bound on ExecTime for any schedule under the coarse wait model.
	CriticalPath float64
	// Levels is the number of wavefront levels executed (wavefront model
	// only; zero for the doacross).
	Levels int
	// BarrierTime is the total barrier cost charged (wavefront model only:
	// Levels * WavefrontCosts.Barrier).
	BarrierTime float64
	// ProcBusy[p] is the fraction of the executor phase processor p spent
	// executing (working or checking) rather than waiting or idle.
	ProcBusy []float64
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("P=%d N=%d Tseq=%.1f Tpar=%.1f speedup=%.2f eff=%.3f wait=%.1f",
		r.Processors, r.Iterations, r.TSeq, r.TPar, r.Speedup, r.Efficiency, r.WaitTime)
}

// ReadPredsFromAccess builds a ReadPreds function from an access pattern: for
// each read element of iteration i (in the order Reads returns them) it
// yields the iteration that writes the element if that iteration precedes i
// (a true dependency), and -1 otherwise.
func ReadPredsFromAccess(a depgraph.Access) func(i int) []int32 {
	writer := make(map[int]int32)
	for i := 0; i < a.N; i++ {
		for _, e := range a.Writes(i) {
			writer[e] = int32(i)
		}
	}
	return func(i int) []int32 {
		reads := a.Reads(i)
		out := make([]int32, len(reads))
		for k, e := range reads {
			w, ok := writer[e]
			if ok && int(w) < i {
				out[k] = w
			} else {
				out[k] = -1
			}
		}
		return out
	}
}

// Simulate runs the discrete-event simulation of the doacross execution of
// the dependency graph g under the configuration and cost model. The graph's
// Preds must refer to original iteration indices (as produced by
// depgraph.Build); cfg.Order gives the execution order over positions.
func Simulate(g *depgraph.Graph, cfg Config, cm CostModel) (Result, error) {
	n := g.N
	p := cfg.Processors
	if p < 1 {
		return Result{}, fmt.Errorf("machine: need at least one processor, got %d", p)
	}
	if cm.BaseWork == nil && cm.TermWork == 0 {
		return Result{}, fmt.Errorf("machine: cost model requires BaseWork or TermWork")
	}
	reads := cm.ReadsPerIter
	if reads == nil {
		reads = func(int) int { return 0 }
	}
	order := cfg.Order
	if order != nil {
		if len(order) != n {
			return Result{}, fmt.Errorf("machine: order has %d entries for %d iterations", len(order), n)
		}
		if !g.IsTopologicalOrder(order) {
			return Result{}, fmt.Errorf("machine: order is not a topological order of the dependency graph")
		}
	}

	res := Result{Processors: p, Iterations: n}
	for i := 0; i < n; i++ {
		res.TSeq += cm.IterWork(i)
	}

	checkPerRead := cm.CheckPerRead
	iterOverhead := cm.IterOverhead
	prePerIter := cm.PrePerIter
	postPerIter := cm.PostPerIter
	if cfg.SkipChecks {
		checkPerRead = 0
	}
	if cfg.SkipOverheads {
		checkPerRead, iterOverhead, prePerIter, postPerIter = 0, 0, 0, 0
	}

	// Elapsed time of the two doall phases: iterations are spread evenly, so
	// the slowest processor executes ceil(n/p) of them.
	perProc := int(math.Ceil(float64(n) / float64(p)))
	if !cfg.SkipInspector {
		res.PreTime = float64(perProc) * prePerIter
	}
	if !cfg.SkipPostprocess {
		res.PostTime = float64(perProc) * postPerIter
	}

	// iterCost is the total executor-phase occupancy of an iteration
	// (excluding waits).
	iterCost := func(i int) float64 {
		return cm.IterWork(i) + iterOverhead + checkPerRead*float64(reads(i))
	}
	res.CriticalPath, _ = g.CriticalPath(iterCost)

	if n == 0 {
		res.TPar = res.PreTime + res.PostTime
		finishResult(&res)
		return res, nil
	}

	schedule := sched.NewPositionSchedule(n, cfg.Policy, p)
	finish := make([]float64, n)
	simulated := make([]bool, n)
	procTime := make([]float64, p)
	procBusy := make([]float64, p)
	next := make([]int, p) // index into schedule.Items(0, w)

	iterOf := func(pos int) int {
		if order != nil {
			return order[pos]
		}
		return pos
	}

	remaining := n
	for remaining > 0 {
		// Pick the processor whose next unsimulated position is globally
		// smallest; that position's predecessors are all simulated (every
		// smaller position already ran), so it can be processed now.
		best := -1
		bestPos := math.MaxInt
		for w := 0; w < p; w++ {
			if items := schedule.Items(0, w); next[w] < len(items) {
				pos := int(items[next[w]])
				if pos < bestPos {
					bestPos = pos
					best = w
				}
			}
		}
		if best == -1 {
			return Result{}, fmt.Errorf("machine: schedule exhausted with %d iterations unsimulated", remaining)
		}
		w := best
		pos := bestPos
		next[w]++
		it := iterOf(pos)
		for _, pr := range g.Preds[it] {
			if !simulated[pr] {
				return Result{}, fmt.Errorf("machine: iteration %d simulated before its predecessor %d (order not topological?)", it, pr)
			}
		}

		t := procTime[w]
		waited := 0.0
		busy := 0.0
		base := 0.0
		if cm.BaseWork != nil {
			base = cm.BaseWork(it)
		}
		if cfg.ReadPreds == nil {
			// Coarse model: wait for every predecessor before starting.
			depReady := 0.0
			for _, pr := range g.Preds[it] {
				if finish[pr] > depReady {
					depReady = finish[pr]
				}
			}
			if depReady > t {
				waited = depReady - t
				t = depReady
			}
			c := iterCost(it)
			t += c
			busy = c
		} else {
			// Fine model: the executor performs its fixed prologue and base
			// work, then walks the read terms in order, waiting only when it
			// reaches a term whose producer has not finished.
			rp := cfg.ReadPreds(it)
			t += iterOverhead + base
			busy += iterOverhead + base
			for _, pr := range rp {
				if pr >= 0 {
					if finish[pr] > t {
						waited += finish[pr] - t
						t = finish[pr]
					}
				}
				t += checkPerRead + cm.TermWork
				busy += checkPerRead + cm.TermWork
			}
		}
		finish[it] = t
		simulated[it] = true
		procTime[w] = t
		procBusy[w] += busy
		res.WaitTime += waited
		res.OverheadTime += busy - cm.IterWork(it)
		remaining--
	}

	execEnd := 0.0
	for w := 0; w < p; w++ {
		if procTime[w] > execEnd {
			execEnd = procTime[w]
		}
	}
	res.ExecTime = execEnd
	res.TPar = res.PreTime + res.ExecTime + res.PostTime
	res.ProcBusy = make([]float64, p)
	if execEnd > 0 {
		for w := 0; w < p; w++ {
			res.ProcBusy[w] = procBusy[w] / execEnd
		}
	}
	finishResult(&res)
	return res, nil
}

func finishResult(r *Result) {
	if r.TPar > 0 {
		r.Speedup = r.TSeq / r.TPar
		r.Efficiency = r.TSeq / (float64(r.Processors) * r.TPar)
	}
}

// SimulateSequential returns the simulated time of the optimized sequential
// execution (work only, no overheads), which is the T_seq of the paper's
// efficiency definition. It is provided for symmetry with Simulate.
func SimulateSequential(n int, cm CostModel) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		t += cm.IterWork(i)
	}
	return t
}
