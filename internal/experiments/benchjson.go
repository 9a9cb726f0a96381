package experiments

import (
	"encoding/json"
	"os"
	"runtime"

	"doacross/internal/tune"
)

// BenchRecord is one machine-readable performance measurement, the unit of
// the BENCH_results.json file doabench emits alongside its human tables so
// the repo's performance trajectory can be tracked run over run.
type BenchRecord struct {
	// Experiment names the experiment that produced the record ("live",
	// "executors").
	Experiment string `json:"experiment"`
	// Name identifies the workload configuration.
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	// NsPerOp is the parallel wall-clock time of one operation (one run or
	// solve) in nanoseconds; SeqNsPerOp the sequential reference.
	NsPerOp    float64 `json:"ns_per_op"`
	SeqNsPerOp float64 `json:"seq_ns_per_op,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"`
	// WaitPolls is the aggregate busy-wait poll count of the measured run
	// (zero for the wavefront executors by construction).
	WaitPolls int64 `json:"wait_polls"`
	// Executor names the execution strategy the record measured: the
	// executor sweep's arm, the repair rows' wavefront, the tuning rows'
	// final pick.
	Executor string `json:"executor,omitempty"`
	// Levels is the executed level count (zero for the doacross); the
	// inspect times are the cold (first solve) vs warm (a schedule-cache
	// hit for the wavefronts) preprocessing cost.
	Levels        int     `json:"levels,omitempty"`
	ColdInspectNs float64 `json:"cold_inspect_ns,omitempty"`
	WarmInspectNs float64 `json:"warm_inspect_ns,omitempty"`
	// AutoPicked records what the calibrated Auto selection chose for this
	// workload on the measuring host, with the coefficients its
	// self-calibration probe measured.
	AutoPicked    string  `json:"auto_picked,omitempty"`
	AutoBarrierNs float64 `json:"auto_barrier_ns,omitempty"`
	AutoFlagNs    float64 `json:"auto_flag_check_ns,omitempty"`
	AutoClaimNs   float64 `json:"auto_claim_ns,omitempty"`
	// The serving experiment's fields: the concurrent caller count, the
	// measured throughput, and the mean coalesced batch size (1.0 for the
	// unbatched baseline).
	Callers      int     `json:"callers,omitempty"`
	SolvesPerSec float64 `json:"solves_per_sec,omitempty"`
	MeanBatch    float64 `json:"mean_batch,omitempty"`
	// The repair experiment's fields: how many rows each edit step updated,
	// the largest dirty cone a repair recomputed, and the fraction of
	// updates the incremental path served (the rest fell back to a cold
	// re-inspect). Its NsPerOp is the best per-step repair time and
	// ColdInspectNs the cold inspection it replaces.
	RowsPerStep  int     `json:"rows_per_step,omitempty"`
	ConeSize     int     `json:"cone_size,omitempty"`
	RepairedFrac float64 `json:"repaired_frac,omitempty"`
	// The tuning experiment's field: the 1-based run index at which the
	// mis-seeded online tuner settled on the measured-best executor for good
	// (0: never converged within the run budget).
	ConvergedAtRun int `json:"converged_at_run,omitempty"`
}

// BenchFile is the envelope of BENCH_results.json.
type BenchFile struct {
	Schema      int           `json:"schema"`
	GeneratedBy string        `json:"generated_by"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Records     []BenchRecord `json:"records"`
}

// LiveBenchRecords converts live measurements into bench records.
func LiveBenchRecords(results []LiveResult) []BenchRecord {
	records := make([]BenchRecord, 0, len(results))
	for _, r := range results {
		records = append(records, BenchRecord{
			Experiment: "live",
			Name:       r.Name,
			Workers:    r.Workers,
			NsPerOp:    float64(r.TPar.Nanoseconds()),
			SeqNsPerOp: float64(r.TSeq.Nanoseconds()),
			Speedup:    r.Speedup,
			Efficiency: r.Efficiency,
		})
	}
	return records
}

// ExecutorBenchRecords converts an executor sweep into bench records, one
// per fixed executor per configuration; each carries the row's Auto pick and
// the coefficients its self-calibration probe measured.
func ExecutorBenchRecords(rows []ExecutorSweepRow) []BenchRecord {
	records := make([]BenchRecord, 0, tune.NumExecutors*len(rows))
	for _, r := range rows {
		for k, e := range r.Exec[:tune.NumExecutors] {
			records = append(records, BenchRecord{
				Experiment:    "executors",
				Name:          "trisolve " + r.Problem,
				Workers:       r.Workers,
				NsPerOp:       float64(e.T.Nanoseconds()),
				SeqNsPerOp:    float64(r.TSeq.Nanoseconds()),
				Speedup:       e.Speedup,
				WaitPolls:     e.Waits,
				Executor:      tune.ExecutorName(k),
				Levels:        e.Levels,
				ColdInspectNs: float64(e.ColdInspect.Nanoseconds()),
				WarmInspectNs: float64(e.WarmInspect.Nanoseconds()),
				AutoPicked:    r.AutoPicked,
				AutoBarrierNs: r.AutoCosts.BarrierNs,
				AutoFlagNs:    r.AutoCosts.FlagCheckNs,
				AutoClaimNs:   r.AutoCosts.ClaimNs,
			})
		}
	}
	return records
}

// WriteBenchJSON writes the records as BENCH_results.json-style output to
// path.
func WriteBenchJSON(path string, records []BenchRecord) error {
	f := BenchFile{
		Schema:      1,
		GeneratedBy: "doabench",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Records:     records,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
