package machine

import (
	"math"

	"doacross/internal/tune"
)

// TuningTruth is the ground truth of a simulated tuning run: the actual
// executor-phase time of each executor strategy on the loop shape under
// study, in nanoseconds, indexed by tune arm (tune.Doacross, ...). It plays
// the role the wall clock plays for the live tuner (core.Runtime with
// Options.Tuning): every simulated run of an executor observes exactly its
// truth time.
type TuningTruth [tune.NumExecutors]float64

// TuningStep records one simulated tuned run: the decision, what the model
// predicted for the picked arm before observing (from the pre-observation
// coefficients), what the truth delivered, the resulting prediction error,
// and the coefficients after the observation was folded in.
type TuningStep struct {
	Run         int
	Pick        int // tune arm index (tune.Doacross, ...)
	Explored    bool
	PredictedNs float64
	ObservedNs  float64
	// ErrNs is |PredictedNs - ObservedNs|: how wrong the tuned model still
	// was about the executor it ran. Per arm this shrinks as the calibration
	// absorbs observations; the acceptance suite asserts it.
	ErrNs  float64
	Coeffs tune.Coeffs
}

// TuningTrajectory is the full simulated history of a tuned plan.
type TuningTrajectory struct {
	Steps []TuningStep
	// Final is the plan's tuner state after the last run — byte-comparable
	// against a live runtime's state, since both drive the same tune package.
	Final tune.PlanState
	// ConvergedAt is the first run index from which every non-explored
	// decision picked the truth's best arm (tune.Best of the truth;
	// explorations are deliberate and excluded), or -1 if the tuner never
	// settled. 0 means the seed coefficients already agreed with the truth.
	ConvergedAt int
}

// SimulateTuning replays runs tuned decisions against a fixed ground truth:
// each run asks the plan state to decide exactly as the live runtime's Auto
// selection does, observes the decided executor's truth time, and folds the
// measurement back into the calibration. Because it drives the same
// tune.PlanState the runtime embeds — same decision rule, same EMA, same
// back-solve, same deterministic exploration RNG — its trajectory is the
// specification the live tuner is tested against: wrong seed coefficients
// must flip to the truth's best executor and stay, with the predicted time
// of whatever runs converging onto its truth.
//
// o.InitialCosts seeds the coefficients, as it does for a live tuner (there
// is no probe here: a zero seed stays zero up to the tuner's floors); st,
// workers and nrhs describe the plan shape being tuned.
func SimulateTuning(truth TuningTruth, st tune.Stats, workers, nrhs, runs int, o tune.Options) TuningTrajectory {
	o = o.WithDefaults()
	rng := tune.NewRNG(o.Seed)
	ps := tune.NewPlanState(o.InitialCosts)
	traj := TuningTrajectory{ConvergedAt: -1}
	if runs > 0 {
		traj.Steps = make([]TuningStep, 0, runs)
	}
	for r := 0; r < runs; r++ {
		pick, explored := ps.Decide(st, workers, nrhs, o, rng)
		pred := ps.Coeffs.PredictN(st, workers, nrhs)[pick]
		obs := truth[pick]
		ps.Observe(pick, st, workers, nrhs, obs)
		traj.Steps = append(traj.Steps, TuningStep{
			Run:         r,
			Pick:        pick,
			Explored:    explored,
			PredictedNs: pred,
			ObservedNs:  obs,
			ErrNs:       math.Abs(pred - obs),
			Coeffs:      ps.Coeffs,
		})
	}
	traj.Final = ps

	// Converged-at: scan backward for the first suffix whose every greedy
	// (non-explored) decision picked the truth's best arm. A trailing block
	// of explorations extends the suffix — they are deliberate detours, not
	// changes of mind.
	best := tune.Best(truth)
	converged := -1
	for i := len(traj.Steps) - 1; i >= 0; i-- {
		s := traj.Steps[i]
		if !s.Explored && s.Pick != best {
			break
		}
		if !s.Explored {
			converged = i
		}
	}
	traj.ConvergedAt = converged
	return traj
}
