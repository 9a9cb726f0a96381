package machine

import (
	"fmt"

	"doacross/internal/depgraph"
)

// MultiRHSCost scales the cost model for a column-blocked traversal carrying
// nrhs independent right-hand sides — the machine-model counterpart of the
// runtime's blocked multi-RHS data path. The scaling captures exactly the
// asymmetry that data path exploits:
//
//   - useful work scales with the block width: every iteration applies its
//     body once per column, so BaseWork and TermWork are multiplied by nrhs,
//     and so is the postprocessing doall (the scatter copies one row of nrhs
//     values per element);
//   - synchronization does not: dependencies are classified per element row,
//     not per column, so the per-read checks, per-iteration bookkeeping,
//     level barriers and chunk claims stay at their single-RHS values, and
//     the inspector (whose cost is the access pattern's, not the data's) is
//     unchanged.
func MultiRHSCost(cm CostModel, nrhs int) CostModel {
	if nrhs < 1 {
		nrhs = 1
	}
	f := float64(nrhs)
	scaled := cm
	if cm.BaseWork != nil {
		base := cm.BaseWork
		scaled.BaseWork = func(i int) float64 { return f * base(i) }
	}
	scaled.TermWork = f * cm.TermWork
	scaled.PostPerIter = f * cm.PostPerIter
	return scaled
}

// SimulateMultiRHS simulates one column-blocked traversal carrying nrhs
// right-hand sides through the selected execution model, by replaying the
// graph under MultiRHSCost(cm, nrhs). TSeq then counts nrhs sequential
// column solves, so Result.Speedup compares the blocked traversal against
// solving the block one column at a time, and TPar/nrhs is the modelled
// per-solve cost the serving experiment measures as throughput. As nrhs
// grows the fixed synchronization terms amortize across the block, which is
// why the executor pick can flip between the scalar and the blocked run
// (the live counterpart is tune.Coeffs.PredictN).
func SimulateMultiRHS(g *depgraph.Graph, nrhs int, model ExecModel, cfg Config, cm CostModel, wc WavefrontCosts) (Result, error) {
	if nrhs < 1 {
		return Result{}, fmt.Errorf("machine: need at least one right-hand side, got %d", nrhs)
	}
	return SimulateSchedule(g, model, cfg, MultiRHSCost(cm, nrhs), wc)
}
