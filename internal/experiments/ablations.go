package experiments

import (
	"fmt"
	"strings"

	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/machine"
	"doacross/internal/sched"
	"doacross/internal/stencil"
	"doacross/internal/testloop"
	"doacross/internal/trisolve"
)

// OverheadRow quantifies Ablation A (the cost of execution-time preprocessing
// and dependency checks) on a dependency-free configuration of the Figure 4
// loop: the ideal doall, the doall plus only the per-read checks, and the
// full preprocessed doacross.
type OverheadRow struct {
	M                  int
	DoallEff           float64
	ChecksOnlyEff      float64
	FullDoacrossEff    float64
	InspectorShare     float64 // fraction of T_par spent in preprocessing
	PostprocessShare   float64 // fraction of T_par spent in postprocessing
	CheckOverheadShare float64 // fraction of T_par spent in per-read checks
}

// RunOverheadAblation measures the overhead decomposition for a
// dependency-free (odd L) test-loop configuration.
func RunOverheadAblation(n int, ms []int, processors int) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, m := range ms {
		tc := testloop.Config{N: n, M: m, L: 1} // odd L: no dependencies
		g := tc.Graph()
		cm := Figure6CostModel(m)
		cfgBase := machine.Config{Processors: processors, Policy: sched.Cyclic}

		ideal, err := machine.Simulate(g, withSkips(cfgBase, true, true, true, true), cm)
		if err != nil {
			return nil, err
		}
		checksOnly, err := machine.Simulate(g, withSkips(cfgBase, true, false, true, false), cm)
		if err != nil {
			return nil, err
		}
		full, err := machine.Simulate(g, cfgBase, cm)
		if err != nil {
			return nil, err
		}
		row := OverheadRow{
			M:               m,
			DoallEff:        ideal.Efficiency,
			ChecksOnlyEff:   checksOnly.Efficiency,
			FullDoacrossEff: full.Efficiency,
		}
		if full.TPar > 0 {
			row.InspectorShare = full.PreTime / full.TPar
			row.PostprocessShare = full.PostTime / full.TPar
			row.CheckOverheadShare = fig6CheckPerRead * float64(m) / (full.TPar / float64(n) * float64(processors))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func withSkips(cfg machine.Config, skipPre, skipChecks, skipPost, skipOverheads bool) machine.Config {
	cfg.SkipInspector = skipPre
	cfg.SkipChecks = skipChecks
	cfg.SkipPostprocess = skipPost
	cfg.SkipOverheads = skipOverheads
	return cfg
}

// FormatOverhead renders the overhead ablation.
func FormatOverhead(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Ablation A: runtime overhead of the preprocessed doacross on a dependency-free loop (odd L)\n")
	fmt.Fprintf(&b, "%4s %12s %14s %14s %10s %10s\n", "M", "doall eff", "checks-only", "full doacross", "pre share", "post share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d %12.3f %14.3f %14.3f %10.3f %10.3f\n",
			r.M, r.DoallEff, r.ChecksOnlyEff, r.FullDoacrossEff, r.InspectorShare, r.PostprocessShare)
	}
	return b.String()
}

// OrderingRow is one row of Ablation E: the efficiency of the preprocessed
// doacross on a Table 1 matrix under each doconsider ordering strategy.
type OrderingRow struct {
	Problem    stencil.Problem
	Strategy   doconsider.Strategy
	Efficiency float64
	Levels     int
	MeanDist   float64
}

// RunOrderingAblation compares the reordering strategies on the given
// problems.
func RunOrderingAblation(problems []stencil.Problem, processors int, seed int64) ([]OrderingRow, error) {
	var rows []OrderingRow
	for _, prob := range problems {
		l, _, err := stencil.LowerFactor(prob, seed)
		if err != nil {
			return nil, err
		}
		g := trisolve.Graph(l)
		cm := TrisolveCostModel(l)
		acc := depgraph.Access{
			N:      l.N,
			Writes: func(i int) []int { return []int{i} },
			Reads:  func(i int) []int { return l.Col[l.RowPtr[i]:l.RowPtr[i+1]] },
		}
		readPreds := machine.ReadPredsFromAccess(acc)
		levels := g.LevelsInto(nil).Count()
		for _, s := range doconsider.Strategies {
			plan := doconsider.NewPlan(g, s)
			cfg := machine.Config{Processors: processors, Policy: sched.Cyclic, ReadPreds: readPreds}
			if s != doconsider.Natural {
				cfg.Order = plan.Order
			}
			sim, err := machine.Simulate(g, cfg, cm)
			if err != nil {
				return nil, err
			}
			rows = append(rows, OrderingRow{
				Problem:    prob,
				Strategy:   s,
				Efficiency: sim.Efficiency,
				Levels:     levels,
				MeanDist:   plan.MeanWaitDistance,
			})
		}
	}
	return rows, nil
}

// FormatOrdering renders the ordering ablation.
func FormatOrdering(rows []OrderingRow) string {
	var b strings.Builder
	b.WriteString("Ablation E: doconsider ordering strategies for the triangular solve (simulated, P=16)\n")
	fmt.Fprintf(&b, "%-8s %-18s %10s %8s %10s\n", "Problem", "Ordering", "Eff", "Levels", "MeanDist")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-18s %10.3f %8d %10.1f\n", r.Problem, r.Strategy, r.Efficiency, r.Levels, r.MeanDist)
	}
	return b.String()
}

// BlockedRow is one row of Ablation B: the simulated efficiency of the
// strip-mined doacross (Section 2.3) as a function of the block size. The
// strip-mined loop synchronizes globally after each block, so small blocks
// lose pipeline overlap; the scratch memory needed shrinks proportionally.
type BlockedRow struct {
	BlockSize  int
	Efficiency float64
	// ScratchFraction is the fraction of the full-size iter/ready arrays the
	// blocked variant needs (block/N, capped at 1).
	ScratchFraction float64
}

// RunBlockedAblation simulates the strip-mined doacross on the Figure 4 test
// loop for the given block sizes. Each block is simulated independently
// (dependencies into earlier blocks are already satisfied) and the per-block
// times are summed, which models the global synchronization between blocks.
func RunBlockedAblation(tc testloop.Config, blockSizes []int, processors int) ([]BlockedRow, error) {
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	cm := Figure6CostModel(tc.M)
	full := tc.Graph()
	var rows []BlockedRow
	for _, bs := range blockSizes {
		if bs < 1 {
			return nil, fmt.Errorf("experiments: block size must be positive, got %d", bs)
		}
		totalPar := 0.0
		totalSeq := 0.0
		for lo := 0; lo < tc.N; lo += bs {
			hi := lo + bs
			if hi > tc.N {
				hi = tc.N
			}
			sub := blockSubgraph(full, lo, hi)
			acc := depgraph.Access{
				N:      hi - lo,
				Writes: func(i int) []int { return []int{tc.WriteIndex(lo + i)} },
				Reads: func(i int) []int {
					r := make([]int, tc.M)
					for jt := 0; jt < tc.M; jt++ {
						r[jt] = tc.ReadIndex(lo+i, jt)
					}
					return r
				},
			}
			// Reads of elements produced by earlier blocks are already
			// satisfied; ReadPredsFromAccess only sees writers inside the
			// block because the access pattern is restricted to it.
			sim, err := machine.Simulate(sub, machine.Config{
				Processors: processors,
				Policy:     sched.Cyclic,
				ReadPreds:  machine.ReadPredsFromAccess(acc),
			}, cm)
			if err != nil {
				return nil, err
			}
			totalPar += sim.TPar
			totalSeq += sim.TSeq
		}
		eff := 0.0
		if totalPar > 0 {
			eff = totalSeq / (float64(processors) * totalPar)
		}
		frac := float64(bs) / float64(tc.N)
		if frac > 1 {
			frac = 1
		}
		rows = append(rows, BlockedRow{BlockSize: bs, Efficiency: eff, ScratchFraction: frac})
	}
	return rows, nil
}

// blockSubgraph restricts the dependency graph to iterations [lo, hi),
// dropping edges from earlier iterations (their results are already in y when
// the block starts).
func blockSubgraph(g *depgraph.Graph, lo, hi int) *depgraph.Graph {
	sub := &depgraph.Graph{
		N:     hi - lo,
		Preds: make([][]int32, hi-lo),
		Succs: make([][]int32, hi-lo),
	}
	for i := lo; i < hi; i++ {
		for _, p := range g.Preds[i] {
			if int(p) >= lo {
				sub.Preds[i-lo] = append(sub.Preds[i-lo], p-int32(lo))
				sub.Succs[p-int32(lo)] = append(sub.Succs[p-int32(lo)], int32(i-lo))
				sub.Edges++
			}
		}
	}
	return sub
}

// FormatBlocked renders the blocked-variant ablation.
func FormatBlocked(rows []BlockedRow) string {
	var b strings.Builder
	b.WriteString("Ablation B: strip-mined (blocked) doacross, efficiency vs. block size\n")
	fmt.Fprintf(&b, "%10s %12s %16s\n", "block", "eff", "scratch fraction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %12.3f %16.3f\n", r.BlockSize, r.Efficiency, r.ScratchFraction)
	}
	return b.String()
}

// LinearRow is one row of Ablation C: the inspector-based doacross against
// the linear-subscript variant (no inspector) on the Figure 4 loop.
type LinearRow struct {
	L                int
	InspectorEff     float64
	LinearEff        float64
	InspectorPreTime float64
}

// RunLinearAblation compares the two variants across L values.
func RunLinearAblation(n, m int, ls []int, processors int) ([]LinearRow, error) {
	var rows []LinearRow
	for _, l := range ls {
		tc := testloop.Config{N: n, M: m, L: l}
		if err := tc.Validate(); err != nil {
			return nil, err
		}
		g := tc.Graph()
		cm := Figure6CostModel(m)
		readPreds := machine.ReadPredsFromAccess(tc.Access())
		base := machine.Config{Processors: processors, Policy: sched.Cyclic, ReadPreds: readPreds}
		withInspector, err := machine.Simulate(g, base, cm)
		if err != nil {
			return nil, err
		}
		noInspector := base
		noInspector.SkipInspector = true
		linear, err := machine.Simulate(g, noInspector, cm)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LinearRow{
			L:                l,
			InspectorEff:     withInspector.Efficiency,
			LinearEff:        linear.Efficiency,
			InspectorPreTime: withInspector.PreTime,
		})
	}
	return rows, nil
}

// FormatLinear renders the linear-subscript ablation.
func FormatLinear(rows []LinearRow) string {
	var b strings.Builder
	b.WriteString("Ablation C: inspector-based vs. linear-subscript doacross (Section 2.3)\n")
	fmt.Fprintf(&b, "%4s %14s %12s %14s\n", "L", "inspector eff", "linear eff", "inspector pre")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d %14.3f %12.3f %14.1f\n", r.L, r.InspectorEff, r.LinearEff, r.InspectorPreTime)
	}
	return b.String()
}
