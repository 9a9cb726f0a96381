// Package doastat implements the doastat plan-diagnosis tool behind a
// testable seam: given a workload — the paper's Figure 4 test loop, a Table 1
// triangular solve, a MatrixMarket matrix, or an exported plan document — it
// inspects the loop through the same wavefront-plan machinery the runtime
// uses and reports the dependency structure, the cost model's three
// per-executor predictions and Auto's pick, the incremental-repair break-even
// cone, the doconsider orderings and the parallelism profile. Output formats:
// a human-readable text report, the versioned JSON plan document (package
// export), or Graphviz DOT.
//
// Every number in the report is deterministic: graphs and schedules are
// byte-stable for a given workload, and the cost model runs on nominal
// coefficients (overridable by flag) instead of host-measured probes.
package doastat

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"doacross/internal/core"
	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/export"
	"doacross/internal/machine"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
	"doacross/internal/testloop"
	"doacross/internal/trisolve"
	"doacross/internal/tune"
)

// Nominal cost-model coefficients, in nanoseconds. They approximate a
// mid-range host (a pool barrier near a microsecond, a flag check a few
// nanoseconds, a contended claim an order of magnitude above it) and exist to
// make the report deterministic; pass the -barrier-ns family of flags to
// diagnose against measured coefficients instead.
const (
	DefaultBarrierNs   = 1000
	DefaultFlagCheckNs = 5
	DefaultClaimNs     = 25
	DefaultIterNs      = 0
)

// maxDOTNodes caps DOT output; past a few hundred nodes a rendered graph is
// unreadable anyway.
const maxDOTNodes = 200

// Main is the whole tool behind a testable seam: flags in, report out,
// process exit code returned. cmd/doastat calls it with os.Args[1:].
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("doastat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind    = fs.String("kind", "testloop", "testloop | trisolve | matrix | plan")
		n       = fs.Int("n", 10000, "test loop outer iteration count")
		m       = fs.Int("m", 5, "test loop inner length M")
		l       = fs.Int("l", 12, "test loop parameter L")
		problem = fs.String("problem", "5-PT", "trisolve problem: SPE2, SPE5, 5-PT, 7-PT, 9-PT")
		seed    = fs.Int64("seed", 1, "seed for synthetic SPE operators")
		matrix  = fs.String("matrix", "", "MatrixMarket file for -kind matrix")
		tri     = fs.String("tri", "lower", "triangle of the matrix to solve: lower | upper")
		planArg = fs.String("plan", "", "exported plan document (JSON) for -kind plan")
		format  = fs.String("format", "text", "output format: text | json | dot")
		workers = fs.Int("workers", 4, "worker count the plan and predictions assume")
		nrhs    = fs.Int("nrhs", 1, "right-hand-side block width the predictions assume")

		barrierNs   = fs.Float64("barrier-ns", DefaultBarrierNs, "cost model: pool barrier cost in ns")
		flagCheckNs = fs.Float64("flagcheck-ns", DefaultFlagCheckNs, "cost model: per-read flag check cost in ns")
		claimNs     = fs.Float64("claim-ns", DefaultClaimNs, "cost model: dynamic chunk claim cost in ns")
		iterNs      = fs.Float64("iter-ns", DefaultIterNs, "cost model: per-iteration body cost in ns")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "dot":
	default:
		fmt.Fprintf(stderr, "unknown format %q (text, json or dot)\n", *format)
		return 1
	}
	if *workers < 1 {
		fmt.Fprintf(stderr, "workers must be at least 1, got %d\n", *workers)
		return 1
	}
	if *nrhs < 1 {
		fmt.Fprintf(stderr, "nrhs must be at least 1, got %d\n", *nrhs)
		return 1
	}
	costs := tune.Coeffs{BarrierNs: *barrierNs, FlagCheckNs: *flagCheckNs, ClaimNs: *claimNs, IterNs: *iterNs}
	if !costs.Valid() {
		fmt.Fprintf(stderr, "cost flags must be finite, with -barrier-ns, -flagcheck-ns and -claim-ns positive and -iter-ns non-negative, got %+v\n", costs)
		return 1
	}

	doc, g, title, err := build(*kind, buildConfig{
		n: *n, m: *m, l: *l,
		problem: *problem, seed: *seed,
		matrix: *matrix, tri: *tri,
		plan:    *planArg,
		workers: *workers,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	switch *format {
	case "json":
		if err := export.EncodeJSON(stdout, doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	case "dot":
		if doc.Iterations > maxDOTNodes {
			fmt.Fprintf(stderr, "graph has %d nodes; DOT output is limited to %d\n", doc.Iterations, maxDOTNodes)
			return 1
		}
		fmt.Fprint(stdout, doc.DOT())
	default:
		// A plan document carries the worker count it was built for; the live
		// kinds build at the requested count.
		p := *workers
		if *kind == "plan" {
			p = doc.Workers
		}
		report(stdout, title, doc.Stats.InspectStats(), g, costs, p, *nrhs)
	}
	return 0
}

// buildConfig carries the per-kind flag values into build.
type buildConfig struct {
	n, m, l int
	problem string
	seed    int64
	matrix  string
	tri     string
	plan    string
	workers int
}

// build resolves the requested workload into the plan document, the
// dependency graph (for the graph-walking report sections) and the report
// title.
func build(kind string, c buildConfig) (*export.Doc, *depgraph.Graph, string, error) {
	switch kind {
	case "testloop":
		tc := testloop.Config{N: c.n, M: c.m, L: c.l}
		if err := tc.Validate(); err != nil {
			return nil, nil, "", err
		}
		name := fmt.Sprintf("testloop-n%d-m%d-l%d", c.n, c.m, c.l)
		title := fmt.Sprintf("Figure 4 test loop N=%d M=%d L=%d", c.n, c.m, c.l)
		doc, err := snapshotDoc(name, tc.Loop(), tc.DataLen(), c.workers)
		if err != nil {
			return nil, nil, "", err
		}
		return doc, tc.Graph(), title, nil
	case "trisolve":
		var prob stencil.Problem
		found := false
		for _, p := range stencil.Problems {
			if strings.EqualFold(p.String(), c.problem) {
				prob, found = p, true
			}
		}
		if !found {
			return nil, nil, "", fmt.Errorf("unknown problem %q", c.problem)
		}
		lower, _, err := stencil.LowerFactor(prob, c.seed)
		if err != nil {
			return nil, nil, "", err
		}
		loop, err := trisolve.Loop(lower, make([]float64, lower.N))
		if err != nil {
			return nil, nil, "", err
		}
		name := fmt.Sprintf("trisolve-%s-seed%d", prob, c.seed)
		title := fmt.Sprintf("forward substitution for the ILU(0) factor of %v (%d equations)", prob, lower.N)
		doc, err := snapshotDoc(name, loop, lower.N, c.workers)
		if err != nil {
			return nil, nil, "", err
		}
		return doc, trisolve.Graph(lower), title, nil
	case "matrix":
		if c.matrix == "" {
			return nil, nil, "", fmt.Errorf("-kind matrix requires -matrix <file.mtx>")
		}
		f, err := os.Open(c.matrix)
		if err != nil {
			return nil, nil, "", err
		}
		defer f.Close()
		a, err := sparse.ReadMatrixMarket(f)
		if err != nil {
			return nil, nil, "", err
		}
		if a.Rows != a.Cols {
			return nil, nil, "", fmt.Errorf("matrix is %dx%d; a triangular solve needs a square matrix", a.Rows, a.Cols)
		}
		var t *sparse.Triangular
		sweep := "forward"
		switch c.tri {
		case "lower":
			t = sparse.LowerTriangle(a)
		case "upper":
			t, sweep = sparse.UpperTriangle(a), "backward"
		default:
			return nil, nil, "", fmt.Errorf("unknown triangle %q (lower or upper)", c.tri)
		}
		loop, err := trisolve.Loop(t, make([]float64, t.N))
		if err != nil {
			return nil, nil, "", err
		}
		name := fmt.Sprintf("%s-%s", filepath.Base(c.matrix), c.tri)
		title := fmt.Sprintf("%s substitution for the %s triangle of %s (%d equations)", sweep, c.tri, c.matrix, t.N)
		doc, err := snapshotDoc(name, loop, t.N, c.workers)
		if err != nil {
			return nil, nil, "", err
		}
		return doc, trisolve.Graph(t), title, nil
	case "plan":
		if c.plan == "" {
			return nil, nil, "", fmt.Errorf("-kind plan requires -plan <file.json>")
		}
		f, err := os.Open(c.plan)
		if err != nil {
			return nil, nil, "", err
		}
		defer f.Close()
		doc, err := export.DecodeJSON(f)
		if err != nil {
			return nil, nil, "", err
		}
		title := fmt.Sprintf("plan %q (schema %d, built for %d workers)", doc.Name, doc.Schema, doc.Workers)
		return doc, depgraph.FromPreds(doc.Preds), title, nil
	default:
		return nil, nil, "", fmt.Errorf("unknown kind %q", kind)
	}
}

// snapshotDoc inspects the loop through a throwaway wavefront runtime — the
// exact plan machinery a real run uses — and exports the resulting plan.
func snapshotDoc(name string, l *core.Loop, dataLen, workers int) (*export.Doc, error) {
	rt := core.NewRuntime(dataLen, core.Options{Workers: workers, Executor: core.ExecWavefront})
	defer rt.Close()
	snap, err := rt.PlanSnapshot(l)
	if err != nil {
		return nil, err
	}
	return export.FromSnapshot(name, snap), nil
}

// report renders the text diagnosis.
func report(w io.Writer, title string, st tune.Stats, g *depgraph.Graph, costs tune.Coeffs, workers, nrhs int) {
	fmt.Fprintf(w, "Dependency structure of %s\n", title)
	fmt.Fprintf(w, "  iterations        %d\n", st.Iterations)
	fmt.Fprintf(w, "  dependency edges  %d\n", st.Edges)
	fmt.Fprintf(w, "  wavefront levels  %d\n", st.Levels)
	fmt.Fprintf(w, "  widest level      %d iterations\n", st.MaxLevelWidth)
	fmt.Fprintf(w, "  mean level width  %.1f iterations\n", st.MeanLevelWidth)
	fmt.Fprintf(w, "  critical path     %d iterations\n", st.CriticalPathLen)
	if st.CriticalPathLen > 0 {
		fmt.Fprintf(w, "  max speedup       %.1fx (unit cost, unbounded processors)\n",
			float64(st.Iterations)/float64(st.CriticalPathLen))
	}
	fmt.Fprintf(w, "  stall weight      %.1f stalled iterations\n", st.StallWeight)
	fmt.Fprintf(w, "  schedule rounds   %d\n", st.ScheduleRounds)
	fmt.Fprintf(w, "  read imbalance    %.1f extra read terms\n", st.ReadImbalance)
	fmt.Fprintf(w, "  dynamic claims    %d\n", st.DynamicClaims)
	if st.Edges == 0 {
		fmt.Fprintln(w, "  the loop is fully independent: a doall would suffice")
	}

	pick, tda, twf, tdyn := costs.Choose(st, workers, nrhs)
	fmt.Fprintf(w, "\nCost model (%d workers, %d rhs; barrier=%.0f flagCheck=%.0f claim=%.0f iter=%.0f ns):\n",
		workers, nrhs, costs.BarrierNs, costs.FlagCheckNs, costs.ClaimNs, costs.IterNs)
	fmt.Fprintf(w, "  doacross          %12.0f ns\n", tda)
	fmt.Fprintf(w, "  wavefront         %12.0f ns\n", twf)
	fmt.Fprintf(w, "  wavefront-dynamic %12.0f ns\n", tdyn)
	fmt.Fprintf(w, "  auto picks        %s\n", tune.ExecutorName(pick))

	// The tuning forecast replays the runtime's online self-tuning state
	// machine (machine.SimulateTuning — the exact tune.PlanState a live
	// WithOnlineTuning runtime drives) against a deterministic ground truth:
	// the cost model above is taken as the real executor times, and the
	// simulated tuner starts from adversarial coefficients — barrier priced
	// 10x low, flag check 10x high, body weight unknown — that pull the model
	// toward the wrong executor. The section shows how many measured runs the
	// feedback needs to settle on the truly fastest executor and how far the
	// calibrated coefficients travel.
	truth := machine.TuningTruth{tda, twf, tdyn}
	start := tune.Coeffs{
		BarrierNs:   costs.BarrierNs / 10,
		FlagCheckNs: 10 * costs.FlagCheckNs,
		ClaimNs:     costs.ClaimNs,
	}
	const tuningRuns = 32
	traj := machine.SimulateTuning(truth, st, workers, nrhs, tuningRuns, tune.Options{InitialCosts: start, Seed: 1})
	fmt.Fprintf(w, "\nOnline tuning forecast (%d simulated runs, overheads seeded adversarially 10x off):\n", tuningRuns)
	if traj.ConvergedAt < 0 {
		fmt.Fprintf(w, "  settles on        never (within %d runs)\n", tuningRuns)
	} else {
		fmt.Fprintf(w, "  settles on        %s at run %d\n",
			tune.ExecutorName(tune.Best(truth)), traj.ConvergedAt)
	}
	fmt.Fprintf(w, "  explorations      %d of %d runs\n", traj.Final.Explorations, tuningRuns)
	fc := traj.Final.Coeffs
	fmt.Fprintf(w, "  final calibration barrier=%.0f flagCheck=%.1f claim=%.0f iter=%.1f ns\n",
		fc.BarrierNs, fc.FlagCheckNs, fc.ClaimNs, fc.IterNs)
	if len(traj.Steps) > 0 {
		fmt.Fprintf(w, "  prediction error  %.0f ns at run 0, %.0f ns at run %d\n",
			traj.Steps[0].ErrNs, traj.Steps[len(traj.Steps)-1].ErrNs, len(traj.Steps)-1)
	}

	// The repair break-even report is purely a function of the graph's size
	// and the default cost-model ratios, so it is deterministic across hosts:
	// it tells the user how large an edit's dirty cone may grow before
	// RepairPlans' gate falls back to a cold re-inspection.
	breakEven := tune.BreakEvenCone(st.Iterations, st.Edges)
	fmt.Fprintln(w, "\nIncremental plan repair (cost-model units):")
	fmt.Fprintf(w, "  cold inspection   %.0f units\n", tune.ColdInspectUnits(st.Iterations, st.Edges))
	if breakEven >= st.Iterations {
		// A dense enough graph makes the cold inspection so expensive that
		// even a whole-loop dirty cone repairs cheaper.
		fmt.Fprintln(w, "  break-even cone   whole loop (every edit repairs, none falls back cold)")
	} else {
		fmt.Fprintf(w, "  break-even cone   %d iterations (%.1f%% of the loop)\n",
			breakEven, 100*float64(breakEven)/float64(st.Iterations))
	}

	fmt.Fprintln(w, "\nDoconsider orderings (mean positions between dependent iterations — larger is more slack):")
	for _, s := range doconsider.Strategies {
		plan := doconsider.NewPlan(g, s)
		fmt.Fprintf(w, "  %-18s mean wait distance %8.1f\n", s.String(), plan.MeanWaitDistance)
	}

	profile := g.ParallelismProfile()
	if len(profile) > 0 {
		fmt.Fprintln(w, "\nParallelism profile (iterations per wavefront level, first 20 levels):")
		limit := len(profile)
		if limit > 20 {
			limit = 20
		}
		for lvl := 0; lvl < limit; lvl++ {
			fmt.Fprintf(w, "  level %3d: %d\n", lvl, profile[lvl])
		}
		if len(profile) > limit {
			fmt.Fprintf(w, "  ... (%d more levels)\n", len(profile)-limit)
		}
	}
}
