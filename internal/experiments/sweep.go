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

// SweepPoint is one point of a processor-count sweep: the simulated
// efficiency of a workload at a given machine size.
type SweepPoint struct {
	Processors   int
	Efficiency   float64
	Speedup      float64
	ReorderedEff float64
}

// SweepResult is an extension experiment (not in the paper, listed as
// Ablation F in DESIGN.md): how the preprocessed doacross scales with the
// number of processors for a fixed workload. The paper only reports the
// 16-processor point; the sweep shows where the efficiency knee sits and how
// the doconsider reordering moves it.
type SweepResult struct {
	Workload string
	Points   []SweepPoint
}

// RunProcessorSweepTestLoop sweeps the machine size for one Figure 4
// configuration.
func RunProcessorSweepTestLoop(tc testloop.Config, procs []int) (SweepResult, error) {
	if err := tc.Validate(); err != nil {
		return SweepResult{}, err
	}
	g := tc.Graph()
	cm := Figure6CostModel(tc.M)
	rp := machine.ReadPredsFromAccess(tc.Access())
	res := SweepResult{Workload: fmt.Sprintf("figure4 N=%d M=%d L=%d", tc.N, tc.M, tc.L)}
	for _, p := range procs {
		sim, err := machine.Simulate(g, machine.Config{Processors: p, Policy: sched.Cyclic, ReadPreds: rp}, cm)
		if err != nil {
			return SweepResult{}, err
		}
		res.Points = append(res.Points, SweepPoint{
			Processors: p,
			Efficiency: sim.Efficiency,
			Speedup:    sim.Speedup,
			// The test loop is not reordered in the paper; report the same
			// value so the table stays rectangular.
			ReorderedEff: sim.Efficiency,
		})
	}
	return res, nil
}

// RunProcessorSweepTrisolve sweeps the machine size for the forward solve of
// one Table 1 problem, reporting both the natural-order and the reordered
// doacross.
func RunProcessorSweepTrisolve(prob stencil.Problem, procs []int, seed int64) (SweepResult, error) {
	l, _, err := stencil.LowerFactor(prob, seed)
	if err != nil {
		return SweepResult{}, err
	}
	g := trisolve.Graph(l)
	cm := TrisolveCostModel(l)
	acc := depgraph.Access{
		N:      l.N,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return l.Col[l.RowPtr[i]:l.RowPtr[i+1]] },
	}
	rp := machine.ReadPredsFromAccess(acc)
	order := doconsider.Order(g, doconsider.Level)

	res := SweepResult{Workload: fmt.Sprintf("trisolve %v", prob)}
	for _, p := range procs {
		plain, err := machine.Simulate(g, machine.Config{Processors: p, Policy: sched.Cyclic, ReadPreds: rp}, cm)
		if err != nil {
			return SweepResult{}, err
		}
		reordered, err := machine.Simulate(g, machine.Config{Processors: p, Policy: sched.Cyclic, ReadPreds: rp, Order: order}, cm)
		if err != nil {
			return SweepResult{}, err
		}
		res.Points = append(res.Points, SweepPoint{
			Processors:   p,
			Efficiency:   plain.Efficiency,
			Speedup:      plain.Speedup,
			ReorderedEff: reordered.Efficiency,
		})
	}
	return res, nil
}

// DefaultSweepProcessors is the processor-count axis used by the sweep
// experiment and benchmarks.
var DefaultSweepProcessors = []int{1, 2, 4, 8, 16, 32, 64}

// CheckShape verifies the sweep's sanity properties: speedup never decreases
// with more processors, efficiency never increases (beyond a small tolerance
// for static-schedule alignment effects), and the reordered solve is never
// less efficient than the natural-order one.
func (r SweepResult) CheckShape() []string {
	var problems []string
	for i := 1; i < len(r.Points); i++ {
		prev, cur := r.Points[i-1], r.Points[i]
		if cur.Speedup+1e-9 < prev.Speedup {
			problems = append(problems, fmt.Sprintf("%s: speedup decreases from P=%d (%.2f) to P=%d (%.2f)",
				r.Workload, prev.Processors, prev.Speedup, cur.Processors, cur.Speedup))
		}
		// Cyclic static schedules can align slightly better at particular
		// processor counts, so a small efficiency rise is tolerated.
		if cur.Efficiency > prev.Efficiency+0.02 {
			problems = append(problems, fmt.Sprintf("%s: efficiency increases from P=%d (%.3f) to P=%d (%.3f)",
				r.Workload, prev.Processors, prev.Efficiency, cur.Processors, cur.Efficiency))
		}
	}
	for _, p := range r.Points {
		if p.ReorderedEff+1e-9 < p.Efficiency && !strings.HasPrefix(r.Workload, "figure4") {
			problems = append(problems, fmt.Sprintf("%s P=%d: reordered efficiency %.3f below natural %.3f",
				r.Workload, p.Processors, p.ReorderedEff, p.Efficiency))
		}
	}
	return problems
}
