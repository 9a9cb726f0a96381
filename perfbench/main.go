// Command perfbench is the repository benchmark. It runs one workload of the
// preprocessed-doacross runtime for a fixed time from a single process,
// checks every answer, and prints its metrics by name and unit as one JSON
// object on the last line of standard output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The seed is the only source of the workload's inputs (right-hand sides,
// SPE2 value perturbation, edit sequence, arrival times), so a seed repeats a
// run's inputs exactly.
//
// Workloads (see workloads.go for why each was chosen):
//
//   - trisolve-spe2: closed loop, one caller. One op is one ILU(0)
//     preconditioner application on SPE2: a warm forward Solver.Solve on L,
//     then a warm backward one on U. Auto picks the doacross.
//   - cg-7pt: closed loop, one caller. One op is one ILU(0)-preconditioned
//     krylov.CG solve to 1e-8 on 7-PT with the preconditioner wired through
//     UseDoacrossILU. Auto picks the wavefront.
//   - serve-spe2: open loop, Poisson arrivals at serveRate (2000/s) into a
//     SolveService over SPE2's L (50 µs window, MaxBatch 64).
//   - refine-5pt: closed loop, one caller, WithExecutor(Wavefront). One op
//     is 4 Solver.UpdateRow edits on 5-PT's L, then one Solve.
//
// Every solver runs WithWorkers(2) under GOMAXPROCS = min(2, CPUs). The Auto
// workloads pin WithAutoCosts to doastat's nominal coefficients, so their
// executor pick depends only on the input.
//
// Every run builds the workload, drives it untimed for settleTime, then
// measures. With --trace 0 it prints the end-to-end metrics, measured with
// no spans recorded. With --trace 1 it prints the per-layer metrics: it runs the
// workload untraced, then traced (spans recorded by this package around each
// call into a layer; nothing inside the runtime is instrumented), then
// measures each layer through its exported functions on the workload's
// problem (probes.go). Layers the workload's own ops never call are measured
// by a short traced run of the workload that does call them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the worker count of every solver, and the GOMAXPROCS ceiling.
const workers = 2

// setupRuns is how often a run builds its workload from scratch; setup_s is
// the median, which keeps one slow page-in from setting the figure.
const setupRuns = 9

// settleTime is how long a run drives its workload, checked but untimed,
// before it measures. On a shared 2-vCPU host the first seconds of a busy
// process run up to twice as fast as its steady state, which would
// otherwise decide how fast a short run looks.
const settleTime = 2 * time.Second

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json: a run prints exactly one of
// the two sets, and fails if it measured anything else.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"mem_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"harness.op_p99_us", "us"},
	{"harness.op_self_us", "us"},
	{"harness.overhead_x", "x"},
	{"harness.gen_late_p90_us", "us"},
	{"harness.trace_overhead_frac", "frac"},
	{"harness.fail_frac", "frac"},
	{"ladder.raw_us", "us"},
	{"ladder.runseq_us", "us"},
	{"ladder.run_us", "us"},
	{"ladder.solve_us", "us"},
	{"ladder.service_us", "us"},
	{"core.pre_us", "us"},
	{"core.exec_us", "us"},
	{"core.post_us", "us"},
	{"core.wait_polls", "count"},
	{"core.levels", "count"},
	{"core.exec_share.doacross", "frac"},
	{"core.exec_share.wavefront", "frac"},
	{"core.exec_share.wavefront-dynamic", "frac"},
	{"core.cache_hit_frac", "frac"},
	{"core.warm_inspect_ns", "ns"},
	{"core.cold_inspect_us", "us"},
	{"core.repair_us", "us"},
	{"core.repair_cone", "count"},
	{"core.repair_fallback_frac", "frac"},
	{"sched.submit_ns", "ns"},
	{"tune.pred_ratio", "x"},
	{"tune.regret", "x"},
	{"tune.probe_pick_agree", "frac"},
	{"trisolve.lower_us", "us"},
	{"trisolve.upper_us", "us"},
	{"trisolve.multi_us_per_rhs", "us"},
	{"trisolve.update_row_us", "us"},
	{"trisolve.first_solve_us", "us"},
	{"serve.batch_mean", "count"},
	{"serve.batch_solve_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.window_flush_frac", "frac"},
	{"serve.queue_depth_max", "count"},
	{"serve.queue_full_frac", "frac"},
	{"serve.solver_busy_frac", "frac"},
	{"krylov.iterations", "count"},
	{"krylov.apply_us", "us"},
	{"krylov.precond_frac", "frac"},
	{"krylov.self_us", "us"},
	{"sparse.spmv_us", "us"},
	{"sparse.ilu0_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one invocation's flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spanDir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	fs.StringVar(&cfg.spanDir, "span-dir", "", "directory the traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))

	var res result
	var err error
	if cfg.trace {
		res, err = measureLayers(w, cfg, stderr)
	} else {
		res, err = measureEndToEnd(w, cfg, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := checkMetrics(res.Metrics, want); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measureEndToEnd builds the workload setupRuns times, keeps the last build,
// and runs it untraced for the configured time.
func measureEndToEnd(w workload, cfg config, stderr io.Writer) (result, error) {
	setupS := make([]float64, 0, setupRuns)
	var fx fixture
	for i := 0; i < setupRuns; i++ {
		if fx != nil {
			fx.close()
		}
		// Collect the previous build's garbage outside the timed region, so
		// neither its collection nor its pages land on the next build.
		runtime.GC()
		start := time.Now()
		var err error
		fx, err = w.build(cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer fx.close()
	if err := fx.prepare(); err != nil {
		return result{}, fmt.Errorf("%s references: %w", w.name, err)
	}
	settle := fx.drive(w.warmOps, settleTime, nil)
	settle.report(stderr, w.name+" (settle)")
	ph := fx.drive(settle.next, seconds(cfg.seconds), nil)
	ph.report(stderr, w.name+" (untraced)")

	m := metrics{}
	m["setup_s"] = median(setupS)
	m["ops_per_s"] = ph.opsPerSecond()
	m["op_p50_us"] = quantile(ph.lat, 0.50)
	m["op_p90_us"] = quantile(ph.lat, 0.90)
	m["mem_peak_mb"] = peakRSSMB()
	failed := settle.failed + ph.failed
	return m.result(settle.attempted+ph.attempted, failed, failed == 0)
}

// measureLayers runs the workload untraced, then traced, then the layer
// probes, and derives every per-layer metric.
func measureLayers(w workload, cfg config, stderr io.Writer) (result, error) {
	fx, err := w.build(cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer fx.close()
	if err := fx.prepare(); err != nil {
		return result{}, fmt.Errorf("%s references: %w", w.name, err)
	}
	settle := fx.drive(w.warmOps, settleTime, nil)
	settle.report(stderr, w.name+" (settle)")
	d := seconds(0.4 * cfg.seconds)
	plain := fx.drive(settle.next, d, nil)
	plain.report(stderr, w.name+" (untraced)")
	tr := newTracer()
	traced := fx.drive(plain.next, d, tr)
	traced.report(stderr, w.name+" (traced)")

	m := metrics{}
	attempted := settle.attempted + plain.attempted + traced.attempted
	failed := settle.failed + plain.failed + traced.failed
	m["harness.op_p99_us"] = quantile(plain.lat, 0.99)
	m["harness.gen_late_p90_us"] = quantile(plain.late, 0.90)
	// Median op time, not ops_per_s: an open loop's throughput is its
	// arrival rate whatever tracing costs.
	m["harness.trace_overhead_frac"] = median(traced.lat)/median(plain.lat) - 1
	m["harness.fail_frac"] = float64(failed) / float64(attempted)
	sum, err := tr.summarize()
	if err != nil {
		return result{}, fmt.Errorf("%s trace: %w", w.name, err)
	}
	if tr.dropped > 0 {
		fmt.Fprintf(stderr, "%s: %d spans past the %d kept were dropped\n", w.name, tr.dropped, maxSpans)
	}
	m["harness.op_self_us"] = sum.selfUs(w.root)
	fx.layerMetrics(sum, traced, m)
	traces := map[string]*tracer{w.name: tr}

	// Layers the workload's own ops never call: a short traced run of the
	// workload that calls them supplies their metrics.
	for _, owner := range []string{"cg-7pt", "serve-spe2", "refine-5pt"} {
		if owner == w.name {
			continue
		}
		ph, otr, err := traceOwner(workloads[owner], cfg.seed, m, stderr)
		if err != nil {
			return result{}, err
		}
		attempted += ph.attempted
		failed += ph.failed
		traces[owner] = otr
	}

	probeFailures, err := probeLayers(w, cfg.seed, m, stderr)
	if err != nil {
		return result{}, err
	}
	failed += probeFailures
	if cfg.spanDir != "" {
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.spanDir, w.name, cfg.seed)
		if err := writeSpans(path, traces); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stderr, "spans written to %s\n", path)
	}
	return m.result(attempted, failed, failed == 0)
}

// traceOwner builds w and runs it traced for its probeSeconds, setting the
// per-layer metrics its ops measure.
func traceOwner(w workload, seed int64, m metrics, stderr io.Writer) (phase, *tracer, error) {
	fx, err := w.build(seed)
	if err != nil {
		return phase{}, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer fx.close()
	if err := fx.prepare(); err != nil {
		return phase{}, nil, fmt.Errorf("%s references: %w", w.name, err)
	}
	tr := newTracer()
	ph := fx.drive(w.warmOps, seconds(w.probeSeconds), tr)
	ph.report(stderr, w.name+" (layer probe)")
	sum, err := tr.summarize()
	if err != nil {
		return phase{}, nil, fmt.Errorf("%s trace: %w", w.name, err)
	}
	fx.layerMetrics(sum, ph, m)
	return ph, tr, nil
}

// metrics accumulates one run's named values; units come from the tables.
type metrics map[string]float64

func (m metrics) result(attempted, failed int, correct bool) (result, error) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	out := make(map[string]metricValue, len(m))
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, v)
		}
		out[name] = metricValue{Value: v, Unit: units[name]}
	}
	if attempted < 1 {
		return result{}, fmt.Errorf("no operation completed in the run")
	}
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

// checkMetrics fails unless got holds exactly the metrics in want.
func checkMetrics(got map[string]metricValue, want []metricDef) error {
	var missing []string
	for _, d := range want {
		if _, ok := got[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 || len(got) != len(want) {
		return fmt.Errorf("measured %d metrics for %d declared (missing %v)", len(got), len(want), missing)
	}
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// peakRSSMB is the process's peak resident set size in MiB, read from the
// kernel's VmHWM. getrusage's maxrss would not do: it survives exec, so it
// can report the launching shell's peak instead of this program's.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
