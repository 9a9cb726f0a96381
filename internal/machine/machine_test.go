package machine

import (
	"math"
	"testing"

	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/sched"
)

func chainGraph(n int) *depgraph.Graph {
	write := make([]int, n)
	for i := range write {
		write[i] = i
	}
	return depgraph.Build(depgraph.Access{N: n, Writes: func(i int) []int { return write[i : i+1] }, Reads: func(i int) []int {
		if i == 0 {
			return nil
		}
		return []int{i - 1}
	}})
}

func independentGraph(n int) *depgraph.Graph {
	write := make([]int, n)
	for i := range write {
		write[i] = i
	}
	return depgraph.Build(depgraph.Access{N: n, Writes: func(i int) []int { return write[i : i+1] }, Reads: func(i int) []int { return nil }})
}

func gridGraph(nx, ny int) *depgraph.Graph {
	n := nx * ny
	write := make([]int, n)
	for i := range write {
		write[i] = i
	}
	return depgraph.Build(depgraph.Access{N: n, Writes: func(i int) []int { return write[i : i+1] }, Reads: func(it int) []int {
		i, j := it/ny, it%ny
		var r []int
		if i > 0 {
			r = append(r, (i-1)*ny+j)
		}
		if j > 0 {
			r = append(r, i*ny+j-1)
		}
		return r
	}})
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimulateIndependentLoopPerfectScaling(t *testing.T) {
	// No dependencies, no overheads: efficiency must be 1 when P divides N.
	g := independentGraph(160)
	cm := UniformCost(1, 0, 0, 0, 0, 0, 0)
	res, err := Simulate(g, Config{Processors: 16}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Efficiency, 1.0, 1e-12) {
		t.Fatalf("efficiency = %v, want 1", res.Efficiency)
	}
	if !approx(res.TSeq, 160, 1e-12) || !approx(res.TPar, 10, 1e-12) {
		t.Fatalf("Tseq=%v Tpar=%v", res.TSeq, res.TPar)
	}
	if res.WaitTime != 0 {
		t.Error("independent loop should have no wait time")
	}
}

func TestSimulateOverheadFloor(t *testing.T) {
	// With no dependencies but per-read checks and per-iteration overheads,
	// the efficiency equals work / (work + overhead) — the paper's odd-L
	// overhead floor.
	g := independentGraph(1600)
	work, check, ovh := 1.2, 0.7, 1.0
	pre, post := 0.3, 0.4
	cm := UniformCost(work, 0, 1, check, ovh, pre, post)
	res, err := Simulate(g, Config{Processors: 16}, cm)
	if err != nil {
		t.Fatal(err)
	}
	perIter := work + check + ovh + pre + post
	want := work / perIter
	if !approx(res.Efficiency, want, 1e-9) {
		t.Fatalf("efficiency = %v, want %v", res.Efficiency, want)
	}
	if res.PreTime != 100*pre || res.PostTime != 100*post {
		t.Fatalf("pre=%v post=%v", res.PreTime, res.PostTime)
	}
}

func TestSimulateChainIsSequential(t *testing.T) {
	// A pure dependency chain cannot speed up: the parallel time is at least
	// the critical path and efficiency is ~1/P.
	g := chainGraph(64)
	cm := UniformCost(1, 0, 1, 0, 0, 0, 0)
	res, err := Simulate(g, Config{Processors: 8}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.ExecTime, 64, 1e-9) {
		t.Fatalf("chain exec time = %v, want 64", res.ExecTime)
	}
	if !approx(res.Efficiency, 1.0/8, 1e-9) {
		t.Fatalf("chain efficiency = %v, want 1/8", res.Efficiency)
	}
	if res.WaitTime <= 0 {
		t.Error("chain execution should accumulate wait time")
	}
}

func TestSimulateExecNotBelowCriticalPath(t *testing.T) {
	g := gridGraph(20, 20)
	cm := UniformCost(1, 0, 2, 0.3, 0.2, 0.1, 0.1)
	for _, p := range []int{1, 2, 4, 16, 64} {
		res, err := Simulate(g, Config{Processors: p, Policy: sched.Cyclic}, cm)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecTime+1e-9 < res.CriticalPath {
			t.Fatalf("P=%d: exec time %v below critical path %v", p, res.ExecTime, res.CriticalPath)
		}
		if res.ExecTime+1e-9 < res.TSeq/float64(p) {
			t.Fatalf("P=%d: exec time %v below work bound %v", p, res.ExecTime, res.TSeq/float64(p))
		}
	}
}

func TestSimulateSingleProcessorMatchesSequentialPlusOverhead(t *testing.T) {
	g := gridGraph(10, 10)
	cm := UniformCost(2, 0, 2, 0.5, 0.3, 0.2, 0.2)
	res, err := Simulate(g, Config{Processors: 1}, cm)
	if err != nil {
		t.Fatal(err)
	}
	n := 100.0
	wantExec := n * (2 + 2*0.5 + 0.3)
	if !approx(res.ExecTime, wantExec, 1e-9) {
		t.Fatalf("P=1 exec = %v, want %v", res.ExecTime, wantExec)
	}
	if res.WaitTime != 0 {
		t.Error("single processor should never wait")
	}
	if !approx(res.TPar, wantExec+n*0.2+n*0.2, 1e-9) {
		t.Fatalf("P=1 Tpar = %v", res.TPar)
	}
}

func TestSimulateMoreProcessorsNeverSlower(t *testing.T) {
	g := gridGraph(30, 30)
	cm := UniformCost(1, 0, 2, 0.4, 0.3, 0.2, 0.3)
	prev := math.Inf(1)
	for _, p := range []int{1, 2, 4, 8, 16} {
		res, err := Simulate(g, Config{Processors: p, Policy: sched.Cyclic}, cm)
		if err != nil {
			t.Fatal(err)
		}
		if res.TPar > prev+1e-9 {
			t.Fatalf("P=%d slower than previous processor count: %v > %v", p, res.TPar, prev)
		}
		prev = res.TPar
	}
}

func TestSimulateReorderingImprovesGridSolve(t *testing.T) {
	// On the grid DAG (the triangular-solve structure), the level
	// (doconsider) ordering must not be slower than natural order, and with
	// a cyclic distribution it should be measurably faster.
	g := gridGraph(40, 40)
	cm := UniformCost(1, 0, 2, 0.3, 0.2, 0.1, 0.1)
	natural, err := Simulate(g, Config{Processors: 16, Policy: sched.Block}, cm)
	if err != nil {
		t.Fatal(err)
	}
	order := doconsider.Order(g, doconsider.Level)
	reordered, err := Simulate(g, Config{Processors: 16, Policy: sched.Cyclic, Order: order}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if reordered.Efficiency <= natural.Efficiency {
		t.Fatalf("reordering did not help: natural %.3f reordered %.3f",
			natural.Efficiency, reordered.Efficiency)
	}
}

func TestSimulateSkipFlags(t *testing.T) {
	g := independentGraph(32)
	cm := UniformCost(1, 0, 1, 0.5, 0.2, 0.3, 0.4)
	full, _ := Simulate(g, Config{Processors: 4}, cm)
	noPre, _ := Simulate(g, Config{Processors: 4, SkipInspector: true}, cm)
	noPost, _ := Simulate(g, Config{Processors: 4, SkipPostprocess: true}, cm)
	noChecks, _ := Simulate(g, Config{Processors: 4, SkipChecks: true}, cm)
	if noPre.TPar >= full.TPar || noPost.TPar >= full.TPar || noChecks.TPar >= full.TPar {
		t.Fatalf("skip flags did not reduce time: full=%v noPre=%v noPost=%v noChecks=%v",
			full.TPar, noPre.TPar, noPost.TPar, noChecks.TPar)
	}
	if noPre.PreTime != 0 || noPost.PostTime != 0 {
		t.Error("skipped phases should cost nothing")
	}
}

func TestSimulateErrors(t *testing.T) {
	g := chainGraph(4)
	cm := UniformCost(1, 0, 0, 0, 0, 0, 0)
	if _, err := Simulate(g, Config{Processors: 0}, cm); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := Simulate(g, Config{Processors: 2}, CostModel{}); err == nil {
		t.Error("missing IterWork accepted")
	}
	if _, err := Simulate(g, Config{Processors: 2, Order: []int{0, 1}}, cm); err == nil {
		t.Error("short order accepted")
	}
	if _, err := Simulate(g, Config{Processors: 2, Order: []int{3, 2, 1, 0}}, cm); err == nil {
		t.Error("non-topological order accepted")
	}
}

func TestSimulateEmptyGraph(t *testing.T) {
	g := independentGraph(0)
	cm := UniformCost(1, 0, 0, 0, 0, 1, 1)
	res, err := Simulate(g, Config{Processors: 4}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if res.TSeq != 0 || res.Efficiency != 0 {
		t.Fatalf("empty graph result: %+v", res)
	}
}

func TestSimulateSequentialHelper(t *testing.T) {
	cm := UniformCost(2.5, 0, 0, 0, 0, 0, 0)
	if got := SimulateSequential(10, cm); !approx(got, 25, 1e-12) {
		t.Fatalf("SimulateSequential = %v, want 25", got)
	}
}

func TestResultString(t *testing.T) {
	g := independentGraph(8)
	cm := UniformCost(1, 0, 0, 0, 0, 0, 0)
	res, _ := Simulate(g, Config{Processors: 2}, cm)
	if res.String() == "" {
		t.Error("empty result string")
	}
	if len(res.ProcBusy) != 2 {
		t.Error("per-processor busy fractions missing")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	g := gridGraph(25, 17)
	cm := UniformCost(1.5, 0, 2, 0.3, 0.2, 0.1, 0.1)
	a, _ := Simulate(g, Config{Processors: 16, Policy: sched.Cyclic}, cm)
	b, _ := Simulate(g, Config{Processors: 16, Policy: sched.Cyclic}, cm)
	if a.TPar != b.TPar || a.WaitTime != b.WaitTime {
		t.Error("simulation is not deterministic")
	}
}

// gridAccess is the access pattern behind gridGraph, needed for the
// fine-grained wait model.
func gridAccess(nx, ny int) depgraph.Access {
	n := nx * ny
	return depgraph.Access{
		N:      n,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(it int) []int {
			i, j := it/ny, it%ny
			var r []int
			if i > 0 {
				r = append(r, (i-1)*ny+j)
			}
			if j > 0 {
				r = append(r, it-1)
			}
			return r
		},
	}
}

func TestReadPredsFromAccess(t *testing.T) {
	a := gridAccess(3, 4)
	rp := ReadPredsFromAccess(a)
	// Iteration 0 has no reads.
	if got := rp(0); len(got) != 0 {
		t.Fatalf("rp(0) = %v, want empty", got)
	}
	// Iteration (1,2) = 6 reads (0,2)=2 and (1,1)=5, both true deps.
	got := rp(6)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("rp(6) = %v, want [2 5]", got)
	}
	// An access reading an element written later must yield -1.
	anti := depgraph.Access{
		N:      2,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			if i == 0 {
				return []int{1}
			}
			return nil
		},
	}
	if got := ReadPredsFromAccess(anti)(0); len(got) != 1 || got[0] != -1 {
		t.Fatalf("anti-dependence read pred = %v, want [-1]", got)
	}
}

func TestSimulateFineModelAllowsPartialOverlap(t *testing.T) {
	// In a chain where each iteration reads its predecessor as the LAST of
	// several terms, the fine wait model lets an iteration overlap its other
	// terms with the predecessor's execution, so the parallel time must be
	// strictly smaller than under the coarse model.
	n := 200
	acc := depgraph.Access{
		N:      n,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			// Four reads of untouched elements, then the chain read.
			r := []int{n + 1, n + 2, n + 3, n + 4}
			if i > 0 {
				r = append(r, i-1)
			}
			return r
		},
	}
	g := depgraph.Build(acc)
	cm := CostModel{
		BaseWork:     func(int) float64 { return 0.5 },
		TermWork:     1.0,
		ReadsPerIter: func(i int) int { return len(acc.Reads(i)) },
		CheckPerRead: 0.2,
		IterOverhead: 0.3,
	}
	coarse, err := Simulate(g, Config{Processors: 16, Policy: sched.Cyclic}, cm)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Simulate(g, Config{Processors: 16, Policy: sched.Cyclic, ReadPreds: ReadPredsFromAccess(acc)}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if fine.ExecTime >= coarse.ExecTime {
		t.Fatalf("fine model (%v) should beat coarse model (%v) on last-term chains", fine.ExecTime, coarse.ExecTime)
	}
	if fine.TSeq != coarse.TSeq {
		t.Fatal("wait model must not change T_seq")
	}
	// The chain still serializes on its final term, so the fine exec time is
	// at least N * (check + term).
	if fine.ExecTime < float64(n)*(0.2+1.0)-1e-9 {
		t.Fatalf("fine exec %v below the last-term chain bound", fine.ExecTime)
	}
}

func TestSimulateFineModelSingleProcessorMatchesCoarse(t *testing.T) {
	// With one processor there is never any waiting, so both wait models
	// must give identical times.
	acc := gridAccess(8, 9)
	g := depgraph.Build(acc)
	cm := CostModel{
		BaseWork:     func(int) float64 { return 1 },
		TermWork:     0.5,
		ReadsPerIter: func(i int) int { return len(acc.Reads(i)) },
		CheckPerRead: 0.2,
		IterOverhead: 0.1,
		PrePerIter:   0.1,
		PostPerIter:  0.1,
	}
	coarse, err := Simulate(g, Config{Processors: 1}, cm)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Simulate(g, Config{Processors: 1, ReadPreds: ReadPredsFromAccess(acc)}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(coarse.TPar, fine.TPar, 1e-9) {
		t.Fatalf("P=1: coarse %v != fine %v", coarse.TPar, fine.TPar)
	}
}

func TestSimulateSkipOverheads(t *testing.T) {
	g := independentGraph(64)
	cm := UniformCost(1, 0, 2, 0.5, 0.5, 0.5, 0.5)
	ideal, err := Simulate(g, Config{Processors: 16, SkipOverheads: true}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ideal.Efficiency, 1.0, 1e-9) {
		t.Fatalf("ideal doall efficiency = %v, want 1", ideal.Efficiency)
	}
	if ideal.PreTime != 0 || ideal.PostTime != 0 || ideal.OverheadTime != 0 {
		t.Fatalf("SkipOverheads left overheads: %+v", ideal)
	}
}

func TestCostModelIterWork(t *testing.T) {
	cm := CostModel{BaseWork: func(i int) float64 { return float64(i) }, TermWork: 2, ReadsPerIter: func(int) int { return 3 }}
	if got := cm.IterWork(4); !approx(got, 10, 1e-12) {
		t.Fatalf("IterWork = %v, want 10", got)
	}
	empty := CostModel{TermWork: 1}
	if got := empty.IterWork(0); got != 0 {
		t.Fatalf("IterWork with no reads = %v, want 0", got)
	}
}
