// Package experiments is the harness that regenerates every table and figure
// of the paper's evaluation (Section 3), plus the design-choice ablations
// listed in DESIGN.md. Numbers for the paper's 16-processor Encore Multimax
// are produced on the deterministic machine simulator (package machine); the
// live goroutine runtime (package core) is used for correctness validation,
// host-scale measurements, and the inspection behind the tables' Auto
// column.
package experiments

import (
	"doacross"
	"doacross/internal/machine"
	"doacross/internal/sparse"
	"doacross/internal/testloop"
)

// PaperProcessors is the processor count of the paper's Encore Multimax/320
// configuration used throughout Section 3.
const PaperProcessors = 16

// Figure 6 cost-model calibration.
//
// The only absolute anchors the paper gives for the synthetic test loop are
// the odd-L efficiency floors: about 0.33 for M=1 and about 0.50 for M=5.
// Odd L means no cross-iteration dependencies, so those floors measure pure
// overhead: eff = work / (work + overhead) with
//
//	work(M)     = fig6BaseWork + fig6TermWork*M
//	overhead(M) = fig6CheckPerRead*M + fig6IterOverhead + fig6PrePerIter + fig6PostPerIter
//
// Setting fig6TermWork = 1 fixes the time unit; the floors then force
// fig6CheckPerRead = 0.7 and (fig6IterOverhead + pre + post) = 1.7:
//
//	M=1: 1.2 / (1.2 + 0.7 + 1.7) = 0.333
//	M=5: 5.2 / (5.2 + 3.5 + 1.7) = 0.500
const (
	fig6BaseWork     = 0.2
	fig6TermWork     = 1.0
	fig6CheckPerRead = 0.7
	fig6IterOverhead = 1.2
	fig6PrePerIter   = 0.25
	fig6PostPerIter  = 0.25
)

// Wavefront-model calibration.
//
// The pre-scheduled wavefront executor pays none of the doacross's per-read
// checks; its per-iteration overhead is the ynew seeding and loop
// bookkeeping with no flag to set — calibrated as half the doacross
// IterOverhead. The paper reports no Multimax barrier time, so the barrier
// is anchored to the synchronization it replaces: one all-processor
// rendezvous is taken as roughly a dozen flag operations (the Multimax's
// shared-bus atomic increment per processor plus the spin until the count
// fills), which puts one barrier at several iterations' worth of overhead —
// expensive enough that deep, narrow level structures lose to the doacross
// pipelining, cheap enough that wide levels amortize it easily.
// The dynamic within-level executor's chunk claim is one shared-bus atomic
// fetch-add — the same primitive as one flag operation, so the claim is
// anchored to the flag-check cost of each calibration. The chunk size
// matches the live runtime's sched.DefaultChunk.
const (
	fig6Barrier        = 8.0
	fig6WfIterOverhead = 0.6
	fig6Claim          = 0.7
	triBarrier         = 4.0
	triWfIterOverhead  = 0.35
	triClaim           = 0.35
	wfChunk            = 16
)

// Figure6WavefrontCosts returns the wavefront-executor costs calibrated
// against the Figure 6 constants.
func Figure6WavefrontCosts() machine.WavefrontCosts {
	return machine.WavefrontCosts{Barrier: fig6Barrier, IterOverhead: fig6WfIterOverhead, Claim: fig6Claim, Chunk: wfChunk}
}

// TrisolveWavefrontCosts returns the wavefront-executor costs for the
// Table 1 triangular solves.
func TrisolveWavefrontCosts() machine.WavefrontCosts {
	return machine.WavefrontCosts{Barrier: triBarrier, IterOverhead: triWfIterOverhead, Claim: triClaim, Chunk: wfChunk}
}

// Figure6AutoCosts maps the Figure 6 calibration onto the Auto selection's
// coefficient space: the simulator-side defaults of the cost-model
// comparison (on a live host the runtime measures BarrierNs and FlagCheckNs
// itself). The per-iteration work term is the test loop's BaseWork + M
// multiply-adds.
func Figure6AutoCosts(m int) doacross.AutoCosts {
	return doacross.AutoCosts{
		BarrierNs:   fig6Barrier,
		FlagCheckNs: fig6CheckPerRead,
		ClaimNs:     fig6Claim,
		IterNs:      fig6BaseWork + fig6TermWork*float64(m),
	}
}

// TrisolveAutoCosts maps the Table 1 calibration onto the Auto selection's
// coefficient space for a forward substitution on t, with the matrix's mean
// row occupancy as the per-iteration work term.
func TrisolveAutoCosts(t *sparse.Triangular) doacross.AutoCosts {
	meanReads := 0.0
	if t.N > 0 {
		meanReads = float64(t.NNZ()) / float64(t.N)
	}
	return doacross.AutoCosts{
		BarrierNs:   triBarrier,
		FlagCheckNs: triCheckPerRead,
		ClaimNs:     triClaim,
		IterNs:      triBaseWork + triTermWork*meanReads,
	}
}

// Figure6CostModel returns the calibrated cost model for the Figure 4 test
// loop with inner length M.
func Figure6CostModel(m int) machine.CostModel {
	return machine.CostModel{
		BaseWork:     func(int) float64 { return fig6BaseWork },
		TermWork:     fig6TermWork,
		ReadsPerIter: func(int) int { return m },
		CheckPerRead: fig6CheckPerRead,
		IterOverhead: fig6IterOverhead,
		PrePerIter:   fig6PrePerIter,
		PostPerIter:  fig6PostPerIter,
	}
}

// Figure6CostModelFor returns the cost model for a specific test-loop
// configuration.
func Figure6CostModelFor(c testloop.Config) machine.CostModel {
	return Figure6CostModel(c.M)
}

// Table 1 cost-model calibration.
//
// The triangular-solve inner term is an indirectly addressed double-precision
// multiply-add, substantially heavier relative to the iter-table check than
// the Figure 4 term, so the solve uses its own work/overhead ratio. The
// constants are chosen so that the simulated 16-processor efficiencies land
// in the bands the paper reports (0.32–0.46 for the natural-order doacross,
// 0.63–0.75 after the doconsider reordering); EXPERIMENTS.md records the
// resulting values for every matrix.
const (
	triBaseWork     = 1.0
	triTermWork     = 2.0
	triCheckPerRead = 0.35
	triIterOverhead = 0.70
	triPrePerIter   = 0.25
	triPostPerIter  = 0.35
	// triMsPerUnit converts simulated time units into the "milliseconds"
	// reported in the Table 1 reproduction. The scale is fixed so that the
	// simulated sequential time of the 5-PT problem matches the paper's
	// 192 ms; it affects presentation only, never ratios.
	triMsPerUnit = 192.0 / (3969.0 * (triBaseWork + triTermWork*1.9395))
)

// TrisolveCostModel returns the calibrated cost model for a forward
// substitution on the lower triangular matrix t: iteration i performs one
// read term per off-diagonal nonzero of row i.
func TrisolveCostModel(t *sparse.Triangular) machine.CostModel {
	return machine.CostModel{
		BaseWork:     func(int) float64 { return triBaseWork },
		TermWork:     triTermWork,
		ReadsPerIter: func(i int) int { return t.RowNNZ(i) },
		CheckPerRead: triCheckPerRead,
		IterOverhead: triIterOverhead,
		PrePerIter:   triPrePerIter,
		PostPerIter:  triPostPerIter,
	}
}

// SimulatedMs converts simulated trisolve time units to the milliseconds
// scale used in the Table 1 reproduction.
func SimulatedMs(units float64) float64 { return units * triMsPerUnit }
