package core

import (
	"context"
	"fmt"
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
// It is not a second run path. RunMulti runs through the driver RunContext
// uses (Runtime.run), one traversal per block; each block's positions run
// through the same execBody as a scalar run's, and MultiValues shares
// Values' per-iteration state (iterState). What is specific to blocks lives
// here: the MultiValues row accessors and the gather and scatter between the
// caller's columns and the block buffers.
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
// values the sequential loop would have observed. MultiValues and Values
// share one per-iteration state, so Iteration, Waits and Fail are the same
// accessors on both. A MultiValues is specific to one iteration of one run
// and must not be retained after the body returns; the row slices it returns
// alias the runtime's block buffers and share that lifetime.
type MultiValues struct {
	iterState
	// nc is the block's row width and colBase its first column; both are
	// set once per block (armMulti), not per iteration.
	nc      int
	colBase int
}

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
	if v.fresh(e) {
		return v.new[e*v.nc : (e+1)*v.nc]
	}
	return v.old[e*v.nc : (e+1)*v.nc]
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
// contents of ys are unspecified after a failed run.
//
// RunMulti checks ys and BodyMulti, then runs through the driver RunContext
// uses, one traversal per block: each block resolves its own executor at its
// own width and feeds the online tuner its own executor time. The report sums
// the blocks' phase times, counters and repair time, reports a plan repair or
// an exploration if any block had one, carries the last block's executor,
// plan and cost-model fields, and records the column count in NRHS.
func (rt *Runtime) RunMulti(ctx context.Context, l *Loop, ys [][]float64) (Report, error) {
	if l.Data > rt.dataLen {
		return Report{}, fmt.Errorf("core: loop data length %d exceeds runtime capacity %d", l.Data, rt.dataLen)
	}
	if len(ys) == 0 {
		return Report{}, fmt.Errorf("core: RunMulti requires at least one right-hand side column")
	}
	for c, y := range ys {
		if len(y) < l.Data {
			return Report{}, fmt.Errorf("core: column %d has length %d, shorter than loop data length %d", c, len(y), l.Data)
		}
	}
	if l.BodyMulti == nil {
		return Report{}, fmt.Errorf("core: RunMulti requires Loop.BodyMulti")
	}
	return rt.run(ctx, l, nil, ys)
}

// armMulti sizes the block buffers for l.Data rows of len(ys) columns,
// gathers the columns element-major into the old block, and arms the block
// for execBody (mnc and the MultiValues' row width and column offset).
// Buffers are grown once and reused across blocks and runs.
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
	for w := range rt.mvals {
		rt.mvals[w].nc, rt.mvals[w].colBase = nc, colBase
	}
	mold := rt.mold
	rt.pool.ParallelFor(l.Data, func(e int) {
		row := mold[e*nc : (e+1)*nc]
		for c := range ys {
			row[c] = ys[c][e]
		}
	})
	rt.mnc = nc
}

// scatterMulti copies the written rows of the new block back into the caller's
// columns — the multi path's counterpart of the postprocess copy-back.
func (rt *Runtime) scatterMulti(l *Loop, ys [][]float64) {
	nc := rt.mnc
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
	// Old and new alias the same buffer and the zero check knows no writer,
	// exactly as in RunSequential, so LoadRow returns the current contents.
	v, chk := &MultiValues{nc: nc}, &depCheck{}
	for i := 0; i < l.N; i++ {
		v.reset(chk, buf, buf, i)
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
