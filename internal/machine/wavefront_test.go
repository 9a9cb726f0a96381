package machine

import (
	"math"
	"testing"

	"doacross/internal/depgraph"
	"doacross/internal/sched"
)

// layeredGraph builds a graph of depth levels, each of the given width:
// iteration i depends on i-width (the iteration directly above it in the
// previous level), so the wavefront decomposition has exactly depth levels
// of exactly width members.
func layeredGraph(width, depth int) *depgraph.Graph {
	n := width * depth
	return depgraph.Build(depgraph.Access{
		N:      n,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			if i < width {
				return nil
			}
			return []int{i - width}
		},
	})
}

// uniformWavefrontCost pairs a unit-work cost model with typical wavefront
// costs for the crossover tests.
func uniformWavefrontCost() (CostModel, WavefrontCosts) {
	cm := UniformCost(1.0, 0, 1, 0.5, 1.0, 0.25, 0.25)
	// UniformCost sets TermWork=0 with one read, so IterWork is the base
	// work alone; the doacross still pays CheckPerRead per read.
	return cm, WavefrontCosts{Barrier: 2.0, IterOverhead: 0.5}
}

// TestSimulateWavefrontCrossover is the headline property of the two
// execution models: wide, shallow level structures favor the barrier
// (amortized over many iterations per level), while long critical paths
// favor the doacross pipelining (one barrier per level with almost nothing
// to run between barriers).
func TestSimulateWavefrontCrossover(t *testing.T) {
	cm, wc := uniformWavefrontCost()
	cfg := Config{Processors: 16, Policy: sched.Cyclic}
	cases := []struct {
		name         string
		width, depth int
		wantWinner   string
	}{
		{"wide shallow", 256, 4, "wavefront"},
		{"wide moderate", 128, 16, "wavefront"},
		{"chain", 1, 512, "doacross"},
		{"narrow deep", 4, 256, "doacross"},
	}
	for _, tc := range cases {
		g := layeredGraph(tc.width, tc.depth)
		da, err := Simulate(g, cfg, cm)
		if err != nil {
			t.Fatalf("%s: doacross: %v", tc.name, err)
		}
		wf, err := SimulateWavefront(g, cfg, cm, wc)
		if err != nil {
			t.Fatalf("%s: wavefront: %v", tc.name, err)
		}
		winner := "doacross"
		if wf.TPar < da.TPar {
			winner = "wavefront"
		}
		if winner != tc.wantWinner {
			t.Errorf("%s (width %d depth %d): %v won (doacross %.1f vs wavefront %.1f), want %v",
				tc.name, tc.width, tc.depth, winner, da.TPar, wf.TPar, tc.wantWinner)
		}
		if wf.Levels != tc.depth {
			t.Errorf("%s: wavefront simulated %d levels, want %d", tc.name, wf.Levels, tc.depth)
		}
		if wf.WaitTime != 0 {
			t.Errorf("%s: wavefront model charged wait time %.1f", tc.name, wf.WaitTime)
		}
		if math.Abs(wf.BarrierTime-wc.Barrier*float64(tc.depth)) > 1e-9 {
			t.Errorf("%s: barrier time %.1f, want %.1f", tc.name, wf.BarrierTime, wc.Barrier*float64(tc.depth))
		}
		if wf.TSeq != da.TSeq {
			t.Errorf("%s: models disagree on T_seq: %.1f vs %.1f", tc.name, wf.TSeq, da.TSeq)
		}
	}
}

// TestSimulateWavefrontBarrierSweep pins monotonicity: for a fixed graph,
// raising only the barrier cost degrades the wavefront monotonically and
// eventually hands the win to the doacross, which does not depend on the
// barrier cost at all.
func TestSimulateWavefrontBarrierSweep(t *testing.T) {
	g := layeredGraph(32, 64)
	cm, wc := uniformWavefrontCost()
	cfg := Config{Processors: 16, Policy: sched.Cyclic}
	da, err := Simulate(g, cfg, cm)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	var winners []string
	for _, barrier := range []float64{0, 0.5, 2, 8, 32, 128} {
		wc.Barrier = barrier
		wf, err := SimulateWavefront(g, cfg, cm, wc)
		if err != nil {
			t.Fatal(err)
		}
		if wf.TPar < prev {
			t.Fatalf("barrier %.1f: wavefront time %.1f decreased below %.1f", barrier, wf.TPar, prev)
		}
		prev = wf.TPar
		if wf.TPar < da.TPar {
			winners = append(winners, "wavefront")
		} else {
			winners = append(winners, "doacross")
		}
	}
	if winners[0] != "wavefront" {
		t.Errorf("free barriers should favor the wavefront, got %v", winners[0])
	}
	if winners[len(winners)-1] != "doacross" {
		t.Errorf("extreme barriers should favor the doacross, got %v", winners[len(winners)-1])
	}
	for i := 1; i < len(winners); i++ {
		if winners[i-1] == "doacross" && winners[i] == "wavefront" {
			t.Errorf("winner flipped back to wavefront as barriers got more expensive: %v", winners)
		}
	}
}

// TestSimulateLevelScheduleAccounting pins the arithmetic of the wavefront
// model on a hand-checkable schedule: 2 levels of 4 iterations on 2 workers,
// unit work, with explicit overhead, barrier and phase costs.
func TestSimulateLevelScheduleAccounting(t *testing.T) {
	members := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	off := []int32{0, 4, 8}
	s := sched.NewLevelSchedule(members, off, sched.Block, 2)
	cm := CostModel{
		BaseWork:     func(int) float64 { return 1.0 },
		ReadsPerIter: func(int) int { return 0 },
		PrePerIter:   0.5,
		PostPerIter:  0.25,
	}
	wc := WavefrontCosts{Barrier: 3.0, IterOverhead: 0.5}
	res, err := SimulateLevelSchedule(s, Config{Processors: 2}, cm, wc)
	if err != nil {
		t.Fatal(err)
	}
	// Per level: 2 workers × 2 iterations × (1 + 0.5) = 3.0 elapsed, plus
	// the barrier; pre = ceil(8/2)*0.5 = 2, post = ceil(8/2)*0.25 = 1.
	wantExec := 2 * (3.0 + 3.0)
	if math.Abs(res.ExecTime-wantExec) > 1e-9 {
		t.Errorf("exec time %.2f, want %.2f", res.ExecTime, wantExec)
	}
	if math.Abs(res.PreTime-2.0) > 1e-9 || math.Abs(res.PostTime-1.0) > 1e-9 {
		t.Errorf("phase times pre=%.2f post=%.2f, want 2.00/1.00", res.PreTime, res.PostTime)
	}
	if math.Abs(res.TPar-(wantExec+3.0)) > 1e-9 {
		t.Errorf("TPar %.2f, want %.2f", res.TPar, wantExec+3.0)
	}
	if math.Abs(res.TSeq-8.0) > 1e-9 {
		t.Errorf("TSeq %.2f, want 8.00", res.TSeq)
	}
	if res.Levels != 2 || math.Abs(res.BarrierTime-6.0) > 1e-9 {
		t.Errorf("levels=%d barrierTime=%.2f, want 2/6.00", res.Levels, res.BarrierTime)
	}
	// SkipOverheads strips barriers, iteration overhead and both phases:
	// the ideal level-parallel execution.
	ideal, err := SimulateLevelSchedule(s, Config{Processors: 2, SkipOverheads: true}, cm, wc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ideal.TPar-4.0) > 1e-9 {
		t.Errorf("ideal TPar %.2f, want 4.00", ideal.TPar)
	}
	// SkipInspector alone models the warm run: only the pre phase vanishes.
	warm, err := SimulateLevelSchedule(s, Config{Processors: 2, SkipInspector: true}, cm, wc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.TPar-(wantExec+1.0)) > 1e-9 {
		t.Errorf("warm TPar %.2f, want %.2f", warm.TPar, wantExec+1.0)
	}
}

// TestSimulateWavefrontValidation pins the error paths: an explicit order,
// a processorless config, and an empty cost model are all rejected.
func TestSimulateWavefrontValidation(t *testing.T) {
	g := layeredGraph(2, 2)
	cm, wc := uniformWavefrontCost()
	if _, err := SimulateWavefront(g, Config{Processors: 4, Order: []int{0, 1, 2, 3}}, cm, wc); err == nil {
		t.Error("explicit order accepted")
	}
	if _, err := SimulateWavefront(g, Config{}, cm, wc); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := SimulateWavefront(g, Config{Processors: 4}, CostModel{}, wc); err == nil {
		t.Error("empty cost model accepted")
	}
}
