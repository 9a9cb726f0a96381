package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"doacross/internal/depgraph"
	"doacross/internal/flags"
	"doacross/internal/sched"
	"doacross/internal/sparse"
)

// figure1Loop builds the paper's Figure 1 loop
//
//	do i = 1, N:  y(a(i)) = ... y(b(i))
//
// as a Loop over a data array of length dataLen. a must have distinct values
// (no output dependencies); b may point anywhere, producing a mixture of
// true dependencies, anti-dependencies and reads of untouched elements.
func figure1Loop(a, b []int, dataLen int) *Loop {
	n := len(a)
	return &Loop{
		N:      n,
		Data:   dataLen,
		Writes: func(i int) []int { return a[i : i+1] },
		Reads:  func(i int) []int { return b[i : i+1] },
		Body: func(i int, v *Values) {
			v.Store(a[i], 2*v.Load(b[i])+float64(i))
		},
	}
}

// randomFigure1 builds a random instance of the Figure 1 loop along with its
// initial data.
func randomFigure1(rng *rand.Rand, n int) (*Loop, []float64) {
	dataLen := 2 * n
	perm := rng.Perm(dataLen)[:n] // distinct write targets
	a := make([]int, n)
	b := make([]int, n)
	copy(a, perm)
	for i := range b {
		b[i] = rng.Intn(dataLen)
	}
	y := make([]float64, dataLen)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	return figure1Loop(a, b, dataLen), y
}

// mustRunSequential computes the sequential reference and fails the test on
// the error a reference loop is never expected to produce.
func mustRunSequential(tb testing.TB, l *Loop, y []float64) {
	tb.Helper()
	if err := RunSequential(l, y); err != nil {
		tb.Fatal(err)
	}
}

func runBoth(t *testing.T, l *Loop, y []float64, opts Options) (seq, par []float64) {
	t.Helper()
	seq = append([]float64(nil), y...)
	par = append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	rt := NewRuntime(l.Data, opts)
	if _, err := rt.Run(l, par); err != nil {
		t.Fatal(err)
	}
	return seq, par
}

func TestDoacrossMatchesSequentialSimpleChain(t *testing.T) {
	// y[i] = y[i-1] + 1: a pure chain of true dependencies.
	n := 200
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = i
		if i > 0 {
			b[i] = i - 1
		}
	}
	l := figure1Loop(a, b, n)
	y := make([]float64, n)
	y[0] = 1
	seq, par := runBoth(t, l, y, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	if d := sparse.VecMaxDiff(seq, par); d != 0 {
		t.Fatalf("chain: parallel differs from sequential by %v", d)
	}
}

func TestDoacrossMatchesSequentialAntiDependencies(t *testing.T) {
	// y[i] = f(y[i+1]): every read is an anti-dependence; the doacross must
	// return the OLD value of y[i+1], not the newly computed one.
	n := 100
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = i
		b[i] = (i + 1) % n
	}
	l := figure1Loop(a, b, n)
	y := make([]float64, n)
	for i := range y {
		y[i] = float64(i)
	}
	seq, par := runBoth(t, l, y, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	if d := sparse.VecMaxDiff(seq, par); d != 0 {
		t.Fatalf("anti-dependencies: parallel differs from sequential by %v", d)
	}
}

func TestDoacrossMatchesSequentialRandomLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		l, y := randomFigure1(rng, 150)
		for _, workers := range []int{1, 2, 3, 8} {
			seq, par := runBoth(t, l, y, Options{Workers: workers, WaitStrategy: flags.WaitSpinYield})
			if d := sparse.VecMaxDiff(seq, par); d != 0 {
				t.Fatalf("trial %d workers %d: parallel differs from sequential by %v", trial, workers, d)
			}
		}
	}
}

func TestDoacrossSelfDependenceReadsOldValue(t *testing.T) {
	// y[a(i)] = 2*y[a(i)] + i: the read and the write subscript coincide, so
	// every read is an intra-iteration dependence. The doacross must observe
	// the pre-loop value (via the ynew seeding of Figure 5, statement S2).
	n := 64
	a := make([]int, n)
	for i := range a {
		a[i] = (i*7 + 3) % (2 * n)
		for dup := 0; dup < i; dup++ {
			if a[dup] == a[i] { // keep writes distinct
				a[i] = (a[i] + 1) % (2 * n)
				dup = -1
			}
		}
	}
	l := figure1Loop(a, a, 2*n)
	y := make([]float64, 2*n)
	for i := range y {
		y[i] = float64(i) * 0.25
	}
	seq, par := runBoth(t, l, y, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	if d := sparse.VecMaxDiff(seq, par); d != 0 {
		t.Fatalf("self-dependence: parallel differs from sequential by %v", d)
	}
}

func TestDoacrossPoliciesAndStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l, y := randomFigure1(rng, 120)
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	for _, policy := range []sched.Policy{sched.Block, sched.Cyclic, sched.Dynamic} {
		for _, strategy := range []flags.WaitStrategy{flags.WaitSpinYield, flags.WaitNotify} {
			par := append([]float64(nil), y...)
			rt := NewRuntime(l.Data, Options{Workers: 4, Policy: policy, WaitStrategy: strategy, Chunk: 8})
			if _, err := rt.Run(l, par); err != nil {
				t.Fatal(err)
			}
			if d := sparse.VecMaxDiff(seq, par); d != 0 {
				t.Fatalf("policy %v strategy %v: mismatch %v", policy, strategy, d)
			}
		}
	}
}

func TestDoacrossEpochTablesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l, y := randomFigure1(rng, 100)
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	par := append([]float64(nil), y...)
	rt := NewRuntime(l.Data, Options{Workers: 4, UseEpochTables: true, WaitStrategy: flags.WaitSpinYield})
	if _, err := rt.Run(l, par); err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(seq, par); d != 0 {
		t.Fatalf("epoch tables: mismatch %v", d)
	}
	if !rt.ScratchClean() {
		t.Error("epoch tables not clean after the run's Advance")
	}
}

func TestRuntimeScratchReuseAcrossLoops(t *testing.T) {
	// The same runtime must serve several different doacross loops in
	// sequence (the paper's motivation for the postprocessing phase).
	rng := rand.New(rand.NewSource(17))
	rt := NewRuntime(400, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	for round := 0; round < 5; round++ {
		l, y := randomFigure1(rng, 200)
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		par := append([]float64(nil), y...)
		if _, err := rt.Run(l, par); err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(seq, par); d != 0 {
			t.Fatalf("round %d: mismatch %v", round, d)
		}
		if !rt.ScratchClean() {
			t.Fatalf("round %d: scratch arrays not reset by postprocessing", round)
		}
	}
}

func TestRuntimeReuseAcrossDifferentSizes(t *testing.T) {
	// The memoized static schedule must be rebuilt when the loop size
	// changes between runs of one runtime.
	rng := rand.New(rand.NewSource(23))
	rt := NewRuntime(400, Options{Workers: 4, Policy: sched.Block, WaitStrategy: flags.WaitSpinYield})
	defer rt.Close()
	for _, n := range []int{150, 60, 150, 199, 1} {
		l, y := randomFigure1(rng, n)
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		par := append([]float64(nil), y...)
		if _, err := rt.Run(l, par); err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(seq, par); d != 0 {
			t.Fatalf("n=%d: mismatch %v", n, d)
		}
		if !rt.ScratchClean() {
			t.Fatalf("n=%d: scratch arrays not reset", n)
		}
	}
}

func TestEpochTablesAllWaitStrategies(t *testing.T) {
	// Every wait strategy must work with the epoch-table ablation, whose
	// waits compare a ready slot with an advanced epoch rather than 1.
	rng := rand.New(rand.NewSource(31))
	l, y := randomFigure1(rng, 120)
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	for _, strategy := range []flags.WaitStrategy{flags.WaitSpin, flags.WaitSpinYield, flags.WaitNotify} {
		par := append([]float64(nil), y...)
		rt := NewRuntime(l.Data, Options{Workers: 4, UseEpochTables: true, WaitStrategy: strategy})
		if _, err := rt.Run(l, par); err != nil {
			t.Fatal(err)
		}
		rt.Close()
		if d := sparse.VecMaxDiff(seq, par); d != 0 {
			t.Fatalf("strategy %v: mismatch %v", strategy, d)
		}
	}
}

func TestRuntimeRunAfterClose(t *testing.T) {
	// Close is idempotent and a closed runtime still runs correctly (the
	// pool falls back to spawn-per-call).
	rng := rand.New(rand.NewSource(37))
	l, y := randomFigure1(rng, 80)
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	rt := NewRuntime(l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	rt.Close()
	rt.Close()
	par := append([]float64(nil), y...)
	if _, err := rt.Run(l, par); err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(seq, par); d != 0 {
		t.Fatalf("run after Close: mismatch %v", d)
	}
}

func TestReportPhaseTimes(t *testing.T) {
	// The fused run stamps phase boundaries at the internal barriers; the
	// three phase times must be non-negative and sum to the total.
	rng := rand.New(rand.NewSource(41))
	l, y := randomFigure1(rng, 300)
	rt := NewRuntime(l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	defer rt.Close()
	rep, err := rt.Run(l, y)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PreTime < 0 || rep.ExecTime < 0 || rep.PostTime < 0 {
		t.Fatalf("negative phase time: pre=%v exec=%v post=%v", rep.PreTime, rep.ExecTime, rep.PostTime)
	}
	if sum := rep.PreTime + rep.ExecTime + rep.PostTime; sum > rep.TotalTime {
		t.Fatalf("phase times %v exceed total %v", sum, rep.TotalTime)
	}
	if rep.TotalTime <= 0 {
		t.Fatal("total time not recorded")
	}
}

func TestReportCounters(t *testing.T) {
	// Chain loop: every iteration except the first has exactly one true dep.
	n := 50
	a, b := make([]int, n), make([]int, n)
	for i := range a {
		a[i] = i
		if i > 0 {
			b[i] = i - 1
		} else {
			b[i] = n + 5 // never written
		}
	}
	l := figure1Loop(a, b, 2*n)
	y := make([]float64, 2*n)
	rt := NewRuntime(l.Data, Options{Workers: 2, WaitStrategy: flags.WaitSpinYield})
	rep, err := rt.Run(l, y)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrueDeps != int64(n-1) {
		t.Errorf("TrueDeps = %d, want %d", rep.TrueDeps, n-1)
	}
	if rep.AntiOrNone != 1 {
		t.Errorf("AntiOrNone = %d, want 1", rep.AntiOrNone)
	}
	if rep.Iterations != n || rep.Workers != 2 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestLoopValidate(t *testing.T) {
	good := &Loop{
		N: 3, Data: 5,
		Writes: func(i int) []int { return []int{i} },
		Body:   func(i int, v *Values) {},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid loop rejected: %v", err)
	}
	outputDep := &Loop{
		N: 3, Data: 5,
		Writes: func(i int) []int { return []int{0} },
		Body:   func(i int, v *Values) {},
	}
	if err := outputDep.Validate(); err == nil {
		t.Error("output dependency not detected")
	}
	oob := &Loop{
		N: 3, Data: 2,
		Writes: func(i int) []int { return []int{i} },
		Body:   func(i int, v *Values) {},
	}
	if err := oob.Validate(); err == nil {
		t.Error("out-of-range write not detected")
	}
	if err := (&Loop{N: -1}).Validate(); err == nil {
		t.Error("negative N not detected")
	}
	if err := (&Loop{N: 1, Data: -1}).Validate(); err == nil {
		t.Error("negative Data not detected")
	}
	if err := (&Loop{N: 1, Data: 1}).Validate(); err == nil {
		t.Error("missing Writes/Body not detected")
	}
}

func TestRunErrors(t *testing.T) {
	l := &Loop{N: 4, Data: 10, Writes: func(i int) []int { return []int{i} }, Body: func(i int, v *Values) {}}
	rt := NewRuntime(5, Options{Workers: 2})
	if _, err := rt.Run(l, make([]float64, 10)); err == nil {
		t.Error("data larger than runtime capacity accepted")
	}
	rt2 := NewRuntime(10, Options{Workers: 2})
	if _, err := rt2.Run(l, make([]float64, 3)); err == nil {
		t.Error("short data slice accepted")
	}
	rt3 := NewRuntime(10, Options{Workers: 2, Order: []int{0, 1}})
	if _, err := rt3.Run(l, make([]float64, 10)); err == nil {
		t.Error("wrong-length order accepted")
	}
}

func TestValuesAccessors(t *testing.T) {
	l := &Loop{
		N: 2, Data: 4,
		Writes: func(i int) []int { return []int{i} },
		Body: func(i int, v *Values) {
			if v.Iteration() != i {
				t.Errorf("Iteration() = %d, want %d", v.Iteration(), i)
			}
			old := v.LoadOld(3)
			v.Store(i, old+1)
			if v.LoadNew(i) != old+1 {
				t.Error("LoadNew did not observe Store")
			}
			_ = v.Waits()
		},
	}
	y := []float64{0, 0, 0, 7}
	rt := NewRuntime(4, Options{Workers: 2, WaitStrategy: flags.WaitSpinYield})
	if _, err := rt.Run(l, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 8 || y[1] != 8 {
		t.Errorf("y = %v, want first two elements 8", y)
	}
}

// TestValuesStrideIsTwoCacheLines pins the per-worker Values stride at 128
// bytes on 64-bit platforms: at 120, one worker's counter increments shared
// a cache line with the check pointer its neighbour reads on every Load,
// which slowed two-worker runs measurably.
func TestValuesStrideIsTwoCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the stride is laid out for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Values{}); got != 128 {
		t.Errorf("unsafe.Sizeof(Values{}) = %d, want 128", got)
	}
}

func TestReorderedExecutionMatchesSequential(t *testing.T) {
	// Execute a chain-with-branches loop in level order (a doconsider-style
	// reordering) and check it still matches the sequential result.
	rng := rand.New(rand.NewSource(23))
	n := 200
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = i
		if i == 0 {
			b[i] = n // untouched element
		} else {
			b[i] = rng.Intn(i) // always a true dependency
		}
	}
	l := figure1Loop(a, b, n+1)
	g := depgraph.Build(depgraph.Access{N: n, Writes: func(i int) []int { return a[i : i+1] }, Reads: func(i int) []int { return b[i : i+1] }})
	var order []int
	for _, it := range g.LevelsInto(nil).Members {
		order = append(order, int(it))
	}
	if !g.IsTopologicalOrder(order) {
		t.Fatal("level order is not topological")
	}
	y := make([]float64, n+1)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	par := append([]float64(nil), y...)
	rt := NewRuntime(l.Data, Options{Workers: 4, Order: order, WaitStrategy: flags.WaitSpinYield})
	rep, err := rt.Run(l, par)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Order != "reordered" {
		t.Errorf("report order = %q, want reordered", rep.Order)
	}
	if d := sparse.VecMaxDiff(seq, par); d != 0 {
		t.Fatalf("reordered execution mismatch %v", d)
	}
}
