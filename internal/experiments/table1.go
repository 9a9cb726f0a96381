package experiments

import (
	"fmt"
	"strings"

	"doacross"
	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/machine"
	"doacross/internal/sched"
	"doacross/internal/stencil"
	"doacross/internal/trisolve"
	"doacross/internal/tune"
)

// Table1Config describes the Section 3.2 sparse triangular solve experiment.
type Table1Config struct {
	// Problems lists the test systems (the paper uses SPE2, SPE5, 5-PT,
	// 7-PT, 9-PT).
	Problems []stencil.Problem
	// Processors is the simulated machine size (the paper uses 16).
	Processors int
	// Seed controls the synthetic perturbation of the SPE operators.
	Seed int64
	// Reordering is the doconsider strategy used for the "Iterations
	// Rearranged" column (the paper's doconsider transformation; Level by
	// default).
	Reordering doconsider.Strategy
}

// DefaultTable1Config returns the paper's configuration.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		Problems:   stencil.Problems,
		Processors: PaperProcessors,
		Seed:       1,
		Reordering: doconsider.Level,
	}
}

// Table1Row reproduces one row of the paper's Table 1, plus the efficiency
// columns the paper quotes in the text.
type Table1Row struct {
	Problem   stencil.Problem
	Equations int
	NNZ       int
	Levels    int

	// Simulated times in the table's "ms" scale (see SimulatedMs).
	DoacrossMs   float64
	ReorderedMs  float64
	SequentialMs float64

	// Parallel efficiencies T_seq / (p * T_par).
	DoacrossEff  float64
	ReorderedEff float64

	// WavefrontMs and WavefrontEff are the pre-scheduled wavefront executor
	// simulated under the same cost model (barrier-separated doall per
	// level, no flag checks; see machine.SimulateWavefront).
	WavefrontMs  float64
	WavefrontEff float64
	// DynamicMs and DynamicEff are the dynamic within-level wavefront
	// (self-scheduled levels with per-chunk claim costs; see
	// machine.SimulateDynamicWavefront). It differs from the static
	// wavefront exactly where the factor's row occupancy varies inside a
	// wavefront.
	DynamicMs  float64
	DynamicEff float64
	// AutoPick is the executor the calibrated three-way Auto cost model
	// selects for this system at the table's processor count, using the
	// simulator-side coefficients (TrisolveAutoCosts).
	AutoPick string
}

// Table1Result holds all rows.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
}

// RunTable1 regenerates Table 1 on the machine simulator: for each test
// problem it builds the operator, factors it with ILU(0), takes the unit
// lower triangular factor, and simulates the forward substitution with the
// plain preprocessed doacross (natural order), with the doconsider-reordered
// doacross, and sequentially.
func RunTable1(cfg Table1Config) (Table1Result, error) {
	if cfg.Processors < 1 {
		cfg.Processors = PaperProcessors
	}
	if len(cfg.Problems) == 0 {
		cfg.Problems = stencil.Problems
	}
	res := Table1Result{Config: cfg}
	for _, prob := range cfg.Problems {
		row, err := runTable1Row(prob, cfg)
		if err != nil {
			return Table1Result{}, fmt.Errorf("table1 %v: %w", prob, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runTable1Row(prob stencil.Problem, cfg Table1Config) (Table1Row, error) {
	l, _, err := stencil.LowerFactor(prob, cfg.Seed)
	if err != nil {
		return Table1Row{}, err
	}
	g := trisolve.Graph(l)
	levels := g.LevelsInto(nil).Count()
	cm := TrisolveCostModel(l)
	acc := depgraph.Access{
		N:      l.N,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return l.Col[l.RowPtr[i]:l.RowPtr[i+1]] },
	}
	readPreds := machine.ReadPredsFromAccess(acc)

	// Plain preprocessed doacross: natural order, cyclic self-scheduling.
	plain, err := machine.Simulate(g, machine.Config{
		Processors: cfg.Processors,
		Policy:     sched.Cyclic,
		ReadPreds:  readPreds,
	}, cm)
	if err != nil {
		return Table1Row{}, err
	}

	// Doconsider-reordered preprocessed doacross.
	plan := doconsider.NewPlan(g, cfg.Reordering)
	reordered, err := machine.Simulate(g, machine.Config{
		Processors: cfg.Processors,
		Policy:     sched.Cyclic,
		Order:      plan.Order,
		ReadPreds:  readPreds,
	}, cm)
	if err != nil {
		return Table1Row{}, err
	}

	// Pre-scheduled wavefront executor: barrier-separated doall per level
	// under the same cost model, preprocessing charged as the parallel
	// inspector.
	wavefront, err := machine.SimulateWavefront(g, machine.Config{
		Processors: cfg.Processors,
		Policy:     sched.Cyclic,
	}, cm, TrisolveWavefrontCosts())
	if err != nil {
		return Table1Row{}, err
	}

	// Dynamic within-level wavefront: the same levels, self-scheduled.
	dynamic, err := machine.SimulateDynamicWavefront(g, machine.Config{
		Processors: cfg.Processors,
	}, cm, TrisolveWavefrontCosts())
	if err != nil {
		return Table1Row{}, err
	}

	loop, err := trisolve.Loop(l, make([]float64, l.N))
	if err != nil {
		return Table1Row{}, err
	}
	pick, err := autoPick(loop, cfg.Processors, TrisolveAutoCosts(l))
	if err != nil {
		return Table1Row{}, err
	}

	return Table1Row{
		Problem:      prob,
		Equations:    l.N,
		NNZ:          l.NNZ() + l.N,
		Levels:       levels,
		DoacrossMs:   SimulatedMs(plain.TPar),
		ReorderedMs:  SimulatedMs(reordered.TPar),
		SequentialMs: SimulatedMs(plain.TSeq),
		DoacrossEff:  plain.Efficiency,
		ReorderedEff: reordered.Efficiency,
		WavefrontMs:  SimulatedMs(wavefront.TPar),
		WavefrontEff: wavefront.Efficiency,
		DynamicMs:    SimulatedMs(dynamic.TPar),
		DynamicEff:   dynamic.Efficiency,
		AutoPick:     pick,
	}, nil
}

// autoPick returns the executor the Auto selection picks for l at the
// simulated processor count, exactly as an Auto run decides: a live runtime
// configured like the simulated machine (procs workers, cyclic static
// assignment, the simulator's chunk size) inspects the loop, and Choose
// prices the inspection statistics with the simulator-side coefficients.
func autoPick(l *doacross.Loop, procs int, costs doacross.AutoCosts) (string, error) {
	rt, err := doacross.New(l.Data, doacross.WithWorkers(procs), doacross.WithPolicy(doacross.Cyclic), doacross.WithChunk(wfChunk))
	if err != nil {
		return "", err
	}
	defer rt.Close()
	st, err := rt.Inspect(l)
	if err != nil {
		return "", err
	}
	pick, _, _, _ := costs.Choose(st, procs, 1)
	return tune.ExecutorName(pick), nil
}

// Format renders the rows in the layout of the paper's Table 1, with the
// efficiency columns and the doacross-vs-wavefront executor comparison
// appended.
func (r Table1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: preprocessed doacross times for sparse triangular matrices (P=%d, simulated ms)\n", r.Config.Processors)
	fmt.Fprintf(&b, "%-8s %9s %8s %8s %12s %12s %12s %12s %12s %9s %9s %9s %9s %-9s\n",
		"Problem", "Equations", "NNZ", "Levels", "Doacross", "Rearranged", "Wavefront", "WfDynamic", "Sequential", "Eff", "EffRear", "EffWf", "EffDyn", "Auto")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %9d %8d %8d %12.0f %12.0f %12.0f %12.0f %12.0f %9.2f %9.2f %9.2f %9.2f %-9s\n",
			row.Problem, row.Equations, row.NNZ, row.Levels,
			row.DoacrossMs, row.ReorderedMs, row.WavefrontMs, row.DynamicMs, row.SequentialMs,
			row.DoacrossEff, row.ReorderedEff, row.WavefrontEff, row.DynamicEff, row.AutoPick)
	}
	return b.String()
}

// CheckShape verifies the qualitative claims of Table 1 and the surrounding
// text, returning violations (empty means reproduced):
//
//  1. for every matrix, sequential time > plain doacross time > reordered
//     doacross time (the column ordering of the paper's table),
//  2. every plain doacross run achieves real speedup (efficiency above 2/P)
//     but stays below the reordered run,
//  3. reordered efficiencies fall in a high, tightly clustered band (the
//     paper reports 0.63–0.75; we accept 0.55–0.85 with a spread below
//     0.25),
//  4. averaged over the matrices, reordering buys a substantial efficiency
//     gain (at least +0.10, the paper's gain is ~+0.3),
//  5. the pre-scheduled wavefront rescues every system the natural-order
//     doacross handles poorly: wherever the plain doacross efficiency falls
//     below 0.5, the wavefront beats it (and both wavefront executors
//     always achieve real speedup themselves),
//  6. wherever one simulated executor is at least twice as fast as both
//     others, the calibrated three-way Auto cost model picks the winner
//     (closer calls may go either way — the model sees only aggregate
//     statistics, not the per-level cost variance the simulator replays).
//
// The paper's absolute plain-doacross band (0.32–0.46) is not checked
// per-row: it depends on the (unpublished) unknown ordering of the original
// reservoir matrices and on Multimax bus effects; EXPERIMENTS.md records the
// per-matrix values we obtain with natural row-major ordering.
func (r Table1Result) CheckShape() []string {
	var problems []string
	minSpeedupEff := 2.0 / float64(r.Config.Processors)
	gapSum := 0.0
	reLo, reHi := 1.0, 0.0
	for _, row := range r.Rows {
		if !(row.SequentialMs > row.DoacrossMs) {
			problems = append(problems, fmt.Sprintf("%v: doacross (%.0f ms) not faster than sequential (%.0f ms)", row.Problem, row.DoacrossMs, row.SequentialMs))
		}
		if !(row.DoacrossMs > row.ReorderedMs) {
			problems = append(problems, fmt.Sprintf("%v: reordered doacross (%.0f ms) not faster than plain doacross (%.0f ms)", row.Problem, row.ReorderedMs, row.DoacrossMs))
		}
		if row.ReorderedEff <= row.DoacrossEff {
			problems = append(problems, fmt.Sprintf("%v: reordered efficiency %.2f not above plain %.2f", row.Problem, row.ReorderedEff, row.DoacrossEff))
		}
		if row.DoacrossEff < minSpeedupEff {
			problems = append(problems, fmt.Sprintf("%v: plain doacross efficiency %.2f shows no real speedup", row.Problem, row.DoacrossEff))
		}
		if row.ReorderedEff < 0.55 || row.ReorderedEff > 0.85 {
			problems = append(problems, fmt.Sprintf("%v: reordered efficiency %.2f outside the paper's high band (0.63-0.75 +/- slack)", row.Problem, row.ReorderedEff))
		}
		if row.DoacrossEff < 0.5 && !(row.WavefrontEff > row.DoacrossEff) {
			problems = append(problems, fmt.Sprintf("%v: wavefront efficiency %.2f does not rescue the poor plain doacross %.2f", row.Problem, row.WavefrontEff, row.DoacrossEff))
		}
		if row.WavefrontEff < minSpeedupEff {
			problems = append(problems, fmt.Sprintf("%v: wavefront efficiency %.2f shows no real speedup", row.Problem, row.WavefrontEff))
		}
		if row.DynamicEff < minSpeedupEff {
			problems = append(problems, fmt.Sprintf("%v: dynamic wavefront efficiency %.2f shows no real speedup", row.Problem, row.DynamicEff))
		}
		if row.WavefrontMs > 0 && row.DoacrossMs > 0 && row.DynamicMs > 0 {
			ms := [tune.NumExecutors]float64{row.DoacrossMs, row.WavefrontMs, row.DynamicMs}
			win := tune.Best(ms)
			second := ms[(win+1)%tune.NumExecutors]
			for e, t := range ms {
				if e != win && t < second {
					second = t
				}
			}
			if second >= 2*ms[win] && row.AutoPick != tune.ExecutorName(win) {
				problems = append(problems, fmt.Sprintf("%v: auto picked %s but the simulation clearly favors %s (%.0f/%.0f/%.0f ms)",
					row.Problem, row.AutoPick, tune.ExecutorName(win), row.DoacrossMs, row.WavefrontMs, row.DynamicMs))
			}
		}
		gapSum += row.ReorderedEff - row.DoacrossEff
		if row.ReorderedEff < reLo {
			reLo = row.ReorderedEff
		}
		if row.ReorderedEff > reHi {
			reHi = row.ReorderedEff
		}
	}
	if len(r.Rows) > 0 {
		if gap := gapSum / float64(len(r.Rows)); gap < 0.10 {
			problems = append(problems, fmt.Sprintf("mean efficiency gain from reordering is only %.2f (paper ~0.3)", gap))
		}
		if reHi-reLo > 0.25 {
			problems = append(problems, fmt.Sprintf("reordered efficiencies spread too widely (%.2f..%.2f)", reLo, reHi))
		}
	}
	return problems
}

// SpeedupSummary returns, for reporting, the min and max efficiency of both
// columns across all rows.
func (r Table1Result) SpeedupSummary() (plainLo, plainHi, reLo, reHi float64) {
	if len(r.Rows) == 0 {
		return 0, 0, 0, 0
	}
	plainLo, plainHi = r.Rows[0].DoacrossEff, r.Rows[0].DoacrossEff
	reLo, reHi = r.Rows[0].ReorderedEff, r.Rows[0].ReorderedEff
	for _, row := range r.Rows[1:] {
		if row.DoacrossEff < plainLo {
			plainLo = row.DoacrossEff
		}
		if row.DoacrossEff > plainHi {
			plainHi = row.DoacrossEff
		}
		if row.ReorderedEff < reLo {
			reLo = row.ReorderedEff
		}
		if row.ReorderedEff > reHi {
			reHi = row.ReorderedEff
		}
	}
	return plainLo, plainHi, reLo, reHi
}
