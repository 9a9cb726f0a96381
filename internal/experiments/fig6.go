package experiments

import (
	"fmt"
	"sort"

	"doacross/internal/machine"
	"doacross/internal/sched"
	"doacross/internal/testloop"
)

// Figure6Config describes the Section 3.1 parameter sweep.
type Figure6Config struct {
	// N is the outer iteration count (the paper uses 10000).
	N int
	// Ms lists the inner loop lengths to sweep (the paper uses 1 and 5).
	Ms []int
	// Ls lists the loop parameters to sweep (the paper uses 1..14).
	Ls []int
	// Processors is the simulated machine size (the paper uses 16).
	Processors int
}

// DefaultFigure6Config returns the paper's exact configuration.
func DefaultFigure6Config() Figure6Config {
	ls := make([]int, 14)
	for i := range ls {
		ls[i] = i + 1
	}
	return Figure6Config{N: 10000, Ms: []int{1, 5}, Ls: ls, Processors: PaperProcessors}
}

// Figure6Point is one point of the efficiency-vs-L curve.
type Figure6Point struct {
	M, L            int
	Efficiency      float64
	Speedup         float64
	HasDependencies bool
	MinDepDistance  int
	WaitTime        float64
	TSeq, TPar      float64

	// WavefrontEfficiency is the same configuration simulated under the
	// pre-scheduled wavefront execution model (barrier-separated doall per
	// level); WavefrontTPar the corresponding parallel time. The extension
	// beyond the paper: on the deep, narrow level structures of even L the
	// wavefront loses to the doacross pipelining, on dependency-free odd L
	// it wins by shedding the flag protocol.
	WavefrontEfficiency float64
	WavefrontTPar       float64
	// DynamicEfficiency and DynamicTPar are the dynamic within-level
	// wavefront model (self-scheduled levels, per-chunk claim cost). The
	// test loop's iterations all cost the same, so there is no imbalance to
	// reclaim and the claim traffic makes the dynamic a strict loss here —
	// the control case of the skewed workloads where it wins.
	DynamicEfficiency float64
	DynamicTPar       float64
	// AutoPick is the executor the calibrated three-way Auto cost model
	// selects with the Figure 6 coefficients at this configuration.
	AutoPick string
}

// Figure6Result holds the whole sweep, grouped as the paper plots it: one
// efficiency series per M value, indexed by L.
type Figure6Result struct {
	Config Figure6Config
	Points []Figure6Point
}

// Series returns the points for one M value sorted by L.
func (r Figure6Result) Series(m int) []Figure6Point {
	var out []Figure6Point
	for _, p := range r.Points {
		if p.M == m {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].L < out[j].L })
	return out
}

// RunFigure6 regenerates the Figure 6 sweep on the machine simulator. For
// each (M, L) pair it builds the Figure 4 test loop, derives its dependency
// graph and read timeline, and simulates the preprocessed doacross on the
// configured processor count with dynamic (cyclic) self-scheduling — the
// assignment the Encore doacross construct uses.
func RunFigure6(cfg Figure6Config) (Figure6Result, error) {
	if cfg.Processors < 1 {
		cfg.Processors = PaperProcessors
	}
	res := Figure6Result{Config: cfg}
	for _, m := range cfg.Ms {
		for _, l := range cfg.Ls {
			tc := testloop.Config{N: cfg.N, M: m, L: l}
			if err := tc.Validate(); err != nil {
				return Figure6Result{}, err
			}
			acc := tc.Access()
			g := tc.Graph()
			cm := Figure6CostModel(m)
			sim, err := machine.Simulate(g, machine.Config{
				Processors: cfg.Processors,
				Policy:     sched.Cyclic,
				ReadPreds:  machine.ReadPredsFromAccess(acc),
			}, cm)
			if err != nil {
				return Figure6Result{}, err
			}
			wf, err := machine.SimulateWavefront(g, machine.Config{
				Processors: cfg.Processors,
				Policy:     sched.Cyclic,
			}, cm, Figure6WavefrontCosts())
			if err != nil {
				return Figure6Result{}, err
			}
			dyn, err := machine.SimulateDynamicWavefront(g, machine.Config{
				Processors: cfg.Processors,
			}, cm, Figure6WavefrontCosts())
			if err != nil {
				return Figure6Result{}, err
			}
			pick, err := autoPick(tc.Loop(), cfg.Processors, Figure6AutoCosts(m))
			if err != nil {
				return Figure6Result{}, err
			}
			res.Points = append(res.Points, Figure6Point{
				M:                   m,
				L:                   l,
				Efficiency:          sim.Efficiency,
				Speedup:             sim.Speedup,
				HasDependencies:     tc.HasCrossIterationDeps(),
				MinDepDistance:      tc.MinDepDistance(),
				WaitTime:            sim.WaitTime,
				TSeq:                sim.TSeq,
				TPar:                sim.TPar,
				WavefrontEfficiency: wf.Efficiency,
				WavefrontTPar:       wf.TPar,
				DynamicEfficiency:   dyn.Efficiency,
				DynamicTPar:         dyn.TPar,
				AutoPick:            pick,
			})
		}
	}
	return res, nil
}

// CheckShape verifies the qualitative claims the paper makes about Figure 6
// and returns a list of violations (empty means the shape is reproduced):
//
//  1. odd-L efficiencies form a flat overhead floor near 0.33 for M=1 and
//     0.50 for M=5,
//  2. even-L configurations without cross-iteration dependencies (L=2) sit
//     on the same floor,
//  3. even-L efficiencies with dependencies are monotonically non-decreasing
//     in L (the paper: larger L means larger distances between dependent
//     iterations),
//  4. even-L efficiencies never exceed the odd-L overhead floor for the same
//     M (dependencies can only hurt),
//  5. the wavefront model wins exactly where its structure says it should:
//     on dependency-free configurations (a single barrier-free level, no
//     flag protocol) it beats the doacross, while on the deep narrow level
//     structures of dependent even L it loses to the doacross pipelining —
//     and the calibrated Auto cost model agrees with both calls,
//  6. the dynamic within-level wavefront never beats the static one on the
//     test loop: its iterations all cost the same, so the claim traffic is
//     pure loss (the Auto model must therefore never pick it here either —
//     implied by claim 5's doacross/wavefront expectations).
func (r Figure6Result) CheckShape() []string {
	var problems []string
	for _, m := range r.Config.Ms {
		series := r.Series(m)
		var oddEffs []float64
		var evenDepPoints []Figure6Point
		var evenNoDepPoints []Figure6Point
		for _, p := range series {
			switch {
			case p.L%2 == 1:
				oddEffs = append(oddEffs, p.Efficiency)
			case p.HasDependencies:
				evenDepPoints = append(evenDepPoints, p)
			default:
				evenNoDepPoints = append(evenNoDepPoints, p)
			}
		}
		if len(oddEffs) == 0 {
			continue
		}
		lo, hi := minMax(oddEffs)
		if hi-lo > 0.02 {
			problems = append(problems, fmt.Sprintf("M=%d: odd-L efficiencies are not flat (%.3f..%.3f)", m, lo, hi))
		}
		var target float64
		switch m {
		case 1:
			target = 1.0 / 3.0
		case 5:
			target = 0.5
		default:
			target = -1
		}
		if target > 0 && (lo < target-0.05 || hi > target+0.05) {
			problems = append(problems, fmt.Sprintf("M=%d: odd-L floor %.3f..%.3f not near paper's %.2f", m, lo, hi, target))
		}
		for _, p := range evenNoDepPoints {
			if p.Efficiency < lo-0.02 || p.Efficiency > hi+0.02 {
				problems = append(problems, fmt.Sprintf("M=%d L=%d: dependency-free even L should sit on the odd-L floor, got %.3f", m, p.L, p.Efficiency))
			}
		}
		for i := 1; i < len(evenDepPoints); i++ {
			if evenDepPoints[i].Efficiency < evenDepPoints[i-1].Efficiency-1e-9 {
				problems = append(problems, fmt.Sprintf("M=%d: even-L efficiency decreases from L=%d (%.3f) to L=%d (%.3f)",
					m, evenDepPoints[i-1].L, evenDepPoints[i-1].Efficiency, evenDepPoints[i].L, evenDepPoints[i].Efficiency))
			}
		}
		for _, p := range evenDepPoints {
			if p.Efficiency > hi+1e-9 {
				problems = append(problems, fmt.Sprintf("M=%d L=%d: even-L efficiency %.3f exceeds odd-L floor %.3f", m, p.L, p.Efficiency, hi))
			}
		}
		for _, p := range series {
			if p.DynamicEfficiency > p.WavefrontEfficiency+1e-9 {
				problems = append(problems, fmt.Sprintf("M=%d L=%d: dynamic wavefront efficiency %.3f beats static %.3f on a uniform-cost loop", m, p.L, p.DynamicEfficiency, p.WavefrontEfficiency))
			}
			switch {
			case !p.HasDependencies:
				if p.WavefrontEfficiency <= p.Efficiency {
					problems = append(problems, fmt.Sprintf("M=%d L=%d: dependency-free wavefront efficiency %.3f not above doacross %.3f", m, p.L, p.WavefrontEfficiency, p.Efficiency))
				}
				if p.AutoPick != "wavefront" {
					problems = append(problems, fmt.Sprintf("M=%d L=%d: auto picked %s for a dependency-free loop", m, p.L, p.AutoPick))
				}
			default:
				if p.WavefrontEfficiency >= p.Efficiency {
					problems = append(problems, fmt.Sprintf("M=%d L=%d: deep-level wavefront efficiency %.3f not below doacross %.3f", m, p.L, p.WavefrontEfficiency, p.Efficiency))
				}
				if p.AutoPick != "doacross" {
					problems = append(problems, fmt.Sprintf("M=%d L=%d: auto picked %s for a deep narrow level structure", m, p.L, p.AutoPick))
				}
			}
		}
	}
	return problems
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
