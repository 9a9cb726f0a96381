package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/flags"
	"doacross/internal/sched"
	"doacross/internal/sparse"
	"doacross/internal/tune"
)

// TestPropertyDoacrossEquivalentToSequential is the central correctness
// property of the paper's construct: for ANY loop with runtime-determined
// subscripts (no output dependencies), the preprocessed doacross produces
// exactly the result of the sequential loop, for any worker count, policy,
// wait strategy and table implementation.
func TestPropertyDoacrossEquivalentToSequential(t *testing.T) {
	f := func(seed int64, workerBits, policyBits, strategyBits, epochBit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(120)
		l, y := randomFigure1(rng, n)
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)

		workers := int(workerBits)%7 + 1
		policy := sched.Policy(int(policyBits) % 3)
		strategy := flags.WaitStrategy(int(strategyBits)%2 + 1) // SpinYield or Notify
		opts := Options{
			Workers:        workers,
			Policy:         policy,
			Chunk:          1 + rng.Intn(16),
			WaitStrategy:   strategy,
			UseEpochTables: epochBit%2 == 0,
		}
		par := append([]float64(nil), y...)
		rt := NewRuntime(l.Data, opts)
		if _, err := rt.Run(l, par); err != nil {
			return false
		}
		return sparse.VecMaxDiff(seq, par) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBlockedEquivalentToSequential checks the same property for the
// strip-mined variant over random block sizes.
func TestPropertyBlockedEquivalentToSequential(t *testing.T) {
	f := func(seed int64, blockBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		l, y := randomFigure1(rng, n)
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		block := int(blockBits)%n + 1
		par := append([]float64(nil), y...)
		rt := NewRuntime(l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
		if _, err := rt.RunBlocked(l, par, block); err != nil {
			return false
		}
		return sparse.VecMaxDiff(seq, par) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyReorderedEquivalentToSequential checks that executing under any
// doconsider ordering (all of which are topological) preserves the sequential
// semantics.
func TestPropertyReorderedEquivalentToSequential(t *testing.T) {
	f := func(seed int64, strategyBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		l, y := randomFigure1(rng, n)
		g := depgraph.Build(depgraph.Access{N: l.N, Writes: l.Writes, Reads: l.Reads})
		strategy := doconsider.Strategies[int(strategyBits)%len(doconsider.Strategies)]
		order := doconsider.Order(g, strategy)
		if err := doconsider.Validate(g, order); err != nil {
			return false
		}
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		par := append([]float64(nil), y...)
		rt := NewRuntime(l.Data, Options{Workers: 5, Order: order, WaitStrategy: flags.WaitSpinYield})
		if _, err := rt.Run(l, par); err != nil {
			return false
		}
		return sparse.VecMaxDiff(seq, par) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyScratchAlwaysCleanAfterRun checks the paper's reuse invariant:
// after postprocessing, every iter entry is back to MAXINT and every ready
// flag back to NOTDONE, whatever the loop looked like, under both reset
// protocols and over three back-to-back runs of different loops on one
// runtime.
func TestPropertyScratchAlwaysCleanAfterRun(t *testing.T) {
	f := func(seed int64, epochBit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := NewRuntime(200, Options{Workers: 3, WaitStrategy: flags.WaitSpinYield, UseEpochTables: epochBit%2 == 0})
		defer rt.Close()
		for run := 0; run < 3; run++ {
			l, y := randomFigure1(rng, 20+rng.Intn(80))
			if _, err := rt.Run(l, y); err != nil || !rt.ScratchClean() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestManyWorkersFewIterations stresses the degenerate case where the worker
// count far exceeds the iteration count.
func TestManyWorkersFewIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, y := randomFigure1(rng, 5)
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	for _, workers := range []int{8, 64, 200} {
		par := append([]float64(nil), y...)
		rt := NewRuntime(l.Data, Options{Workers: workers, WaitStrategy: flags.WaitSpinYield})
		if _, err := rt.Run(l, par); err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(seq, par); d != 0 {
			t.Fatalf("workers=%d: mismatch %v", workers, d)
		}
	}
}

// TestEmptyAndSingleIterationLoops covers the boundary sizes.
func TestEmptyAndSingleIterationLoops(t *testing.T) {
	empty := &Loop{N: 0, Data: 4, Writes: func(int) []int { return nil }, Body: func(int, *Values) {}}
	rt := NewRuntime(4, Options{Workers: 3})
	y := []float64{1, 2, 3, 4}
	if _, err := rt.Run(empty, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 1 || y[3] != 4 {
		t.Fatal("empty loop modified data")
	}

	single := &Loop{
		N: 1, Data: 4,
		Writes: func(int) []int { return []int{2} },
		Body:   func(i int, v *Values) { v.Store(2, v.LoadOld(0)*10) },
	}
	if _, err := rt.Run(single, y); err != nil {
		t.Fatal(err)
	}
	if y[2] != 10 {
		t.Fatalf("single-iteration loop result %v", y)
	}
}

// TestLongDependencyChainManyWorkers verifies that a worst-case loop (a pure
// chain) still terminates and produces the right answer when every iteration
// must wait for its predecessor across worker boundaries.
func TestLongDependencyChainManyWorkers(t *testing.T) {
	n := 3000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = i
		if i > 0 {
			b[i] = i - 1
		} else {
			b[i] = 0
		}
	}
	l := figure1Loop(a, b, n)
	y := make([]float64, n)
	y[0] = 1
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	for _, policy := range []sched.Policy{sched.Block, sched.Cyclic, sched.Dynamic} {
		par := append([]float64(nil), y...)
		rt := NewRuntime(n, Options{Workers: 8, Policy: policy, Chunk: 4, WaitStrategy: flags.WaitSpinYield})
		if _, err := rt.Run(l, par); err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(seq, par); d != 0 {
			t.Fatalf("policy %v: chain mismatch %v", policy, d)
		}
	}
}

// TestMultipleWritesPerIteration exercises loops where an iteration writes
// more than one element (the paper's construct permits this as long as no
// element is written twice).
func TestMultipleWritesPerIteration(t *testing.T) {
	n := 200
	dataLen := 3 * n
	l := &Loop{
		N:    n,
		Data: dataLen,
		Writes: func(i int) []int {
			return []int{3 * i, 3*i + 1}
		},
		Reads: func(i int) []int {
			if i == 0 {
				return nil
			}
			return []int{3 * (i - 1), 3*(i-1) + 1}
		},
		Body: func(i int, v *Values) {
			if i == 0 {
				v.Store(0, 1)
				v.Store(1, 2)
				return
			}
			v.Store(3*i, v.Load(3*(i-1))+1)
			v.Store(3*i+1, v.Load(3*(i-1)+1)*1.01)
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, dataLen)
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	par := append([]float64(nil), y...)
	rt := NewRuntime(dataLen, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	if _, err := rt.Run(l, par); err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(seq, par); d != 0 {
		t.Fatalf("multi-write mismatch %v", d)
	}
	if !rt.ScratchClean() {
		t.Error("scratch not clean after multi-write loop")
	}
}

// randomDAGLoop builds a loop with a genuinely random dependency DAG:
// iteration i writes element perm[i] and reads several random elements, so
// the graph mixes multi-predecessor true dependencies, anti-dependencies
// (reads of elements written by later iterations, which must observe the old
// value) and reads of untouched elements. The body arithmetic is
// non-commutative in its operands, so any mis-ordered or mis-classified read
// changes the bits of the result.
func randomDAGLoop(rng *rand.Rand, n int) (*Loop, []float64) {
	dataLen := 2 * n
	perm := rng.Perm(dataLen)[:n]
	reads := make([][]int, n)
	for i := range reads {
		k := rng.Intn(4)
		for j := 0; j < k; j++ {
			reads[i] = append(reads[i], rng.Intn(dataLen))
		}
	}
	l := &Loop{
		N:      n,
		Data:   dataLen,
		Writes: func(i int) []int { return perm[i : i+1] },
		Reads:  func(i int) []int { return reads[i] },
		Body: func(i int, v *Values) {
			s := float64(i) + 1
			for k, e := range reads[i] {
				s = 0.75*s + float64(k+1)*v.Load(e)
			}
			v.Store(perm[i], s)
		},
	}
	y := make([]float64, dataLen)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	return l, y
}

// TestPropertyExecutorsEquivalentToSequential runs random-DAG loops through
// every executor kind (doacross, wavefront, auto, wavefront-dynamic) and
// asserts bitwise equality with the sequential loop across worker counts,
// policies and table implementations — the acceptance property of the
// pluggable executor layer.
func TestPropertyExecutorsEquivalentToSequential(t *testing.T) {
	f := func(seed int64, workerBits, policyBits, execBits, epochBit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(120)
		l, y := randomDAGLoop(rng, n)
		if err := l.Validate(); err != nil {
			t.Logf("invalid loop: %v", err)
			return false
		}
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)

		exec := ExecutorKind(int(execBits) % 4)
		opts := Options{
			Workers:        int(workerBits)%7 + 1,
			Policy:         sched.Policy(int(policyBits) % 3),
			Chunk:          1 + rng.Intn(16),
			WaitStrategy:   flags.WaitSpinYield,
			UseEpochTables: epochBit%2 == 0,
			Executor:       exec,
		}
		rt := NewRuntime(l.Data, opts)
		defer rt.Close()
		// Two runs back to back: the second exercises the schedule cache
		// (and, for the doacross, the scratch reuse) on the same runtime.
		for run := 0; run < 2; run++ {
			par := append([]float64(nil), y...)
			rep, err := rt.Run(l, par)
			if err != nil {
				t.Logf("executor %v run %d: %v", exec, run, err)
				return false
			}
			if exec == ExecWavefront || exec == ExecWavefrontDynamic {
				if rep.Executor != exec.String() {
					t.Logf("report says %q, want %q", rep.Executor, exec.String())
					return false
				}
				if (run == 1) != rep.InspectCached {
					t.Logf("run %d: InspectCached=%v", run, rep.InspectCached)
					return false
				}
			}
			if sparse.VecMaxDiff(seq, par) != 0 {
				t.Logf("executor %v run %d: result differs from sequential", exec, run)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWavefrontMatchesDoacrossOnFigure1 cross-checks the two executors on the
// paper's Figure 1 loop shape (single read per iteration), including the
// scratch-clean reuse invariant of the runtime they share.
func TestWavefrontMatchesDoacrossOnFigure1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		l, y := randomFigure1(rng, 80+rng.Intn(80))
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		for _, exec := range []ExecutorKind{ExecDoacross, ExecWavefront, ExecWavefrontDynamic, ExecAuto} {
			par := append([]float64(nil), y...)
			rt := NewRuntime(l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield, Executor: exec})
			if _, err := rt.Run(l, par); err != nil {
				t.Fatal(err)
			}
			if d := sparse.VecMaxDiff(seq, par); d != 0 {
				t.Fatalf("trial %d executor %v: mismatch %v", trial, exec, d)
			}
			if !rt.ScratchClean() {
				t.Fatalf("trial %d executor %v: scratch not clean", trial, exec)
			}
			rt.Close()
		}
	}
}

// TestWavefrontRequiresReadsAndNaturalOrder pins the wavefront executor's
// structural requirements: no Reads or an explicit Order must fail loudly,
// and Auto must silently fall back to the doacross in both cases.
func TestWavefrontRequiresReadsAndNaturalOrder(t *testing.T) {
	n := 20
	noReads := &Loop{
		N: n, Data: n,
		Writes: func(i int) []int { return []int{i} },
		Body:   func(i int, v *Values) { v.Store(i, float64(i)) },
	}
	y := make([]float64, n)
	rt := NewRuntime(n, Options{Workers: 2, Executor: ExecWavefront})
	defer rt.Close()
	if _, err := rt.Run(noReads, y); err == nil {
		t.Fatal("wavefront executor accepted a loop without Reads")
	}

	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	withReads := &Loop{
		N: n, Data: n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return nil },
		Body:   func(i int, v *Values) { v.Store(i, float64(i)) },
	}
	rtOrd := NewRuntime(n, Options{Workers: 2, Executor: ExecWavefront, Order: order})
	defer rtOrd.Close()
	if _, err := rtOrd.Run(withReads, y); err == nil {
		t.Fatal("wavefront executor accepted an explicit Order")
	}

	// The dynamic wavefront shares both structural requirements.
	rtDyn := NewRuntime(n, Options{Workers: 2, Executor: ExecWavefrontDynamic})
	defer rtDyn.Close()
	if _, err := rtDyn.Run(noReads, y); err == nil {
		t.Fatal("dynamic wavefront executor accepted a loop without Reads")
	}
	rtDynOrd := NewRuntime(n, Options{Workers: 2, Executor: ExecWavefrontDynamic, Order: order})
	defer rtDynOrd.Close()
	if _, err := rtDynOrd.Run(withReads, y); err == nil {
		t.Fatal("dynamic wavefront executor accepted an explicit Order")
	}

	for _, l := range []*Loop{noReads, withReads} {
		rtAuto := NewRuntime(n, Options{Workers: 2, Executor: ExecAuto, Order: order})
		rep, err := rtAuto.Run(l, y)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Executor != "doacross" {
			t.Fatalf("auto picked %q for a constrained loop, want doacross", rep.Executor)
		}
		rtAuto.Close()
	}

	rtBad := NewRuntime(n, Options{Workers: 2, Executor: ExecutorKind(99)})
	defer rtBad.Close()
	if _, err := rtBad.Run(withReads, y); err == nil {
		t.Fatal("unknown executor kind accepted")
	}
}

// TestAutoSelectsByGraphShape checks the Auto heuristic on the two extremes:
// a pure chain (width 1) must keep the doacross, a doall (a single level)
// must pre-schedule.
func TestAutoSelectsByGraphShape(t *testing.T) {
	n := 400
	chain := &Loop{
		N: n, Data: n,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			if i == 0 {
				return nil
			}
			return []int{i - 1}
		},
		Body: func(i int, v *Values) {
			if i == 0 {
				v.Store(0, 1)
				return
			}
			v.Store(i, v.Load(i-1)+1)
		},
	}
	doall := &Loop{
		N: n, Data: 2 * n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return []int{i + n} },
		Body:   func(i int, v *Values) { v.Store(i, 2*v.Load(i+n)) },
	}
	for _, tc := range []struct {
		name string
		l    *Loop
		want string
	}{
		{"chain", chain, "doacross"},
		{"doall", doall, "wavefront"},
	} {
		y := make([]float64, tc.l.Data)
		rt := NewRuntime(tc.l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield, Executor: ExecAuto})
		rep, err := rt.Run(tc.l, y)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Executor != tc.want {
			t.Errorf("%s: auto picked %q, want %q", tc.name, rep.Executor, tc.want)
		}
		rt.Close()
	}
}

// TestWavefrontCancellationMidLevel aborts wavefront runs from inside a loop
// body — context cancellation, body error and body panic, triggered at a
// random iteration so the abort lands mid-level — and checks that the run
// fails with the right error, that the remaining levels drain without
// deadlock, and that the same runtime then completes an untainted run with
// bitwise-correct results.
func TestWavefrontCancellationMidLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 120 + rng.Intn(120)
		l, y := randomDAGLoop(rng, n)
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		trigger := rng.Intn(n)

		for _, exec := range []ExecutorKind{ExecWavefront, ExecWavefrontDynamic, ExecDoacross} {
			rt := NewRuntime(l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield, Executor: exec})

			// Context cancellation from inside a body.
			ctx, cancel := context.WithCancel(context.Background())
			cancelling := *l
			cancelling.Body = func(i int, v *Values) {
				if i == trigger {
					cancel()
					// Give the watcher a moment so the abort lands while this
					// level (and its successors) still have iterations left.
					runtime.Gosched()
				}
				l.Body(i, v)
			}
			par := append([]float64(nil), y...)
			if _, err := rt.RunContext(ctx, &cancelling, par); err == nil {
				t.Fatalf("trial %d %v: cancelled run returned nil error", trial, exec)
			}
			cancel()

			// Body error at a random iteration.
			failing := *l
			failing.Body = nil
			failing.BodyErr = func(i int, v *Values) error {
				if i == trigger {
					return fmt.Errorf("iteration %d failed", i)
				}
				l.Body(i, v)
				return nil
			}
			par = append([]float64(nil), y...)
			if _, err := rt.Run(&failing, par); err == nil || !strings.Contains(err.Error(), "failed") {
				t.Fatalf("trial %d %v: body error not propagated: %v", trial, exec, err)
			}

			// Body panic at a random iteration.
			panicking := *l
			panicking.Body = func(i int, v *Values) {
				if i == trigger {
					panic("boom")
				}
				l.Body(i, v)
			}
			par = append([]float64(nil), y...)
			if _, err := rt.Run(&panicking, par); err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("trial %d %v: body panic not recovered: %v", trial, exec, err)
			}

			// The runtime must remain fully reusable after every abort.
			par = append([]float64(nil), y...)
			if _, err := rt.Run(l, par); err != nil {
				t.Fatalf("trial %d %v: clean run after aborts failed: %v", trial, exec, err)
			}
			if d := sparse.VecMaxDiff(seq, par); d != 0 {
				t.Fatalf("trial %d %v: post-abort run mismatch %v", trial, exec, d)
			}
			if !rt.ScratchClean() {
				t.Fatalf("trial %d %v: scratch dirty after aborts", trial, exec)
			}
			rt.Close()
		}
	}
}

// TestCancelInLastIterationFails cancels a run's context inside the last
// iteration of a chain, under every executor at one and two workers. The
// context is done when the workers drain, so every run must fail with the
// context's error. Whether the watcher observes the cancellation before the
// run ends is up to the scheduler, so each configuration runs 300 times.
func TestCancelInLastIterationFails(t *testing.T) {
	const n, runs = 64, 300
	chain := chainLoop(n)
	for _, exec := range []ExecutorKind{ExecDoacross, ExecWavefront, ExecWavefrontDynamic} {
		for _, workers := range []int{1, 2} {
			rt := NewRuntime(n, Options{Workers: workers, Executor: exec})
			failed := 0
			for run := 0; run < runs; run++ {
				ctx, cancel := context.WithCancel(context.Background())
				l := *chain
				l.Body = func(i int, v *Values) {
					if i == n-1 {
						cancel()
					}
					chain.Body(i, v)
				}
				if _, err := rt.RunContext(ctx, &l, make([]float64, n)); errors.Is(err, context.Canceled) {
					failed++
				}
				cancel()
			}
			rt.Close()
			if failed != runs {
				t.Errorf("%v, %d workers: %d of %d runs cancelled in their last iteration failed with context.Canceled", exec, workers, failed, runs)
			}
		}
	}
}

// skewedLevelLoop builds a loop whose wavefront decomposition is depth
// levels of the given width with one hot iteration per level: every
// iteration reads one element of the previous level, while the level's first
// iteration reads about half of it and burns extra non-commutative
// arithmetic on each value — the heavy-tailed per-iteration cost regime the
// dynamic within-level executor targets. Any mis-ordered, dropped or doubled
// read changes the bits of the result.
func skewedLevelLoop(rng *rand.Rand, width, depth int) (*Loop, []float64) {
	n := width * depth
	hotReads := width / 2
	reads := make([][]int, n)
	for l := 1; l < depth; l++ {
		base, prev := l*width, (l-1)*width
		for k := 0; k < width; k++ {
			i := base + k
			reads[i] = []int{prev + rng.Intn(width)}
			if k == 0 {
				for h := 0; h < hotReads; h++ {
					reads[i] = append(reads[i], prev+rng.Intn(width))
				}
			}
		}
	}
	l := &Loop{
		N:      n,
		Data:   n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return reads[i] },
		Body: func(i int, v *Values) {
			s := float64(i%11) + 0.5
			for k, e := range reads[i] {
				x := v.Load(e)
				// The hot iteration's extra work is real arithmetic over the
				// loaded value, so skipping it (or reordering it) is visible.
				if k > 0 {
					for r := 0; r < 8; r++ {
						x = 0.5*x + float64(r)
					}
				}
				s = 0.75*s + float64(k+1)*x
			}
			v.Store(i, s)
		},
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	return l, y
}

// TestSkewedCostExecutorsEquivalentToSequential runs the heavy-tailed
// one-hot-iteration-per-level loops through all four executors across worker
// counts, policies and table implementations, asserting bitwise equality
// with the sequential loop — the correctness side of the workload the
// dynamic executor exists for (its performance side is
// BenchmarkDynamicWavefront and the machine-model crossover tests).
func TestSkewedCostExecutorsEquivalentToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	execs := []ExecutorKind{ExecDoacross, ExecWavefront, ExecWavefrontDynamic, ExecAuto}
	for trial := 0; trial < 6; trial++ {
		width := 8 + rng.Intn(40)
		depth := 2 + rng.Intn(6)
		l, y := skewedLevelLoop(rng, width, depth)
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		for _, workers := range []int{1, 3, 7} {
			for _, policy := range []sched.Policy{sched.Block, sched.Cyclic, sched.Dynamic} {
				for _, exec := range execs {
					opts := Options{
						Workers:        workers,
						Policy:         policy,
						Chunk:          1 + rng.Intn(8),
						WaitStrategy:   flags.WaitSpinYield,
						UseEpochTables: trial%2 == 0,
						Executor:       exec,
					}
					rt := NewRuntime(l.Data, opts)
					for run := 0; run < 2; run++ {
						par := append([]float64(nil), y...)
						rep, err := rt.Run(l, par)
						if err != nil {
							t.Fatalf("trial %d %v P=%d %v: %v", trial, exec, workers, policy, err)
						}
						if exec == ExecWavefrontDynamic && rep.WaitPolls != 0 {
							t.Fatalf("trial %d: dynamic executor busy-waited (%d polls)", trial, rep.WaitPolls)
						}
						if d := sparse.VecMaxDiff(seq, par); d != 0 {
							t.Fatalf("trial %d %v P=%d %v run %d: mismatch %v", trial, exec, workers, policy, run, d)
						}
					}
					rt.Close()
				}
			}
		}
	}
}

// TestDynamicWavefrontAbortsAtHotIteration aborts dynamic-executor runs from
// inside the hot iteration of a middle level — the worst spot: the rest of
// the level is mid-claim on other workers — via cancellation, body error and
// body panic, and checks the abort drains through every remaining level
// barrier, the claim counter is left consistent (the next run starts clean),
// and the runtime stays bitwise-correct afterwards.
func TestDynamicWavefrontAbortsAtHotIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 8; trial++ {
		width := 12 + rng.Intn(24)
		depth := 3 + rng.Intn(5)
		l, y := skewedLevelLoop(rng, width, depth)
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		trigger := (depth / 2) * width // the hot iteration of a middle level

		rt := NewRuntime(l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield, Executor: ExecWavefrontDynamic})

		ctx, cancel := context.WithCancel(context.Background())
		cancelling := *l
		cancelling.Body = func(i int, v *Values) {
			if i == trigger {
				cancel()
				runtime.Gosched()
			}
			l.Body(i, v)
		}
		par := append([]float64(nil), y...)
		if _, err := rt.RunContext(ctx, &cancelling, par); err == nil {
			t.Fatalf("trial %d: cancelled dynamic run returned nil error", trial)
		}
		cancel()

		failing := *l
		failing.Body = nil
		failing.BodyErr = func(i int, v *Values) error {
			if i == trigger {
				return fmt.Errorf("hot iteration %d failed", i)
			}
			l.Body(i, v)
			return nil
		}
		par = append([]float64(nil), y...)
		if _, err := rt.Run(&failing, par); err == nil || !strings.Contains(err.Error(), "failed") {
			t.Fatalf("trial %d: dynamic body error not propagated: %v", trial, err)
		}

		panicking := *l
		panicking.Body = func(i int, v *Values) {
			if i == trigger {
				panic("hot boom")
			}
			l.Body(i, v)
		}
		par = append([]float64(nil), y...)
		if _, err := rt.Run(&panicking, par); err == nil || !strings.Contains(err.Error(), "hot boom") {
			t.Fatalf("trial %d: dynamic body panic not recovered: %v", trial, err)
		}

		par = append([]float64(nil), y...)
		rep, err := rt.Run(l, par)
		if err != nil {
			t.Fatalf("trial %d: clean dynamic run after aborts failed: %v", trial, err)
		}
		if rep.Executor != "wavefront-dynamic" {
			t.Fatalf("trial %d: post-abort run used %q", trial, rep.Executor)
		}
		if d := sparse.VecMaxDiff(seq, par); d != 0 {
			t.Fatalf("trial %d: post-abort dynamic run mismatch %v", trial, d)
		}
		if !rt.ScratchClean() {
			t.Fatalf("trial %d: scratch dirty after dynamic aborts", trial)
		}
		rt.Close()
	}
}

// TestWavefrontInspectorFailuresReturnErrors pins the wavefront inspection's
// error contract: a Writes closure that writes out of range (an index panic
// on a pool worker) or a Reads closure that panics (on the caller goroutine,
// inside the structural hash) must surface as an error from Run — matching
// the doacross inspector shard's guard — and must leave the runtime usable.
func TestWavefrontInspectorFailuresReturnErrors(t *testing.T) {
	n := 64
	y := make([]float64, n)
	rt := NewRuntime(n, Options{Workers: 3, Executor: ExecWavefront})
	defer rt.Close()

	badWrites := &Loop{
		N: n, Data: n,
		Writes: func(i int) []int {
			if i == 17 {
				return []int{n + 5}
			}
			return []int{i}
		},
		Reads: func(i int) []int { return nil },
		Body:  func(i int, v *Values) { v.Store(i, 1) },
	}
	if _, err := rt.Run(badWrites, y); err == nil || !strings.Contains(err.Error(), "inspector panicked") {
		t.Fatalf("out-of-range write index: err = %v", err)
	}

	badReads := &Loop{
		N: n, Data: n,
		Writes: func(i int) []int { return []int{i} },
		Reads: func(i int) []int {
			if i == 3 {
				panic("broken reads closure")
			}
			return nil
		},
		Body: func(i int, v *Values) { v.Store(i, 1) },
	}
	if _, err := rt.Run(badReads, y); err == nil || !strings.Contains(err.Error(), "inspector panicked") {
		t.Fatalf("panicking Reads closure: err = %v", err)
	}
	if _, err := rt.Inspect(badReads); err == nil {
		t.Fatal("Inspect swallowed a panicking Reads closure")
	}

	good := &Loop{
		N: n, Data: n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return nil },
		Body:   func(i int, v *Values) { v.Store(i, float64(i)) },
	}
	if _, err := rt.Run(good, y); err != nil {
		t.Fatalf("runtime unusable after inspector failures: %v", err)
	}
	if y[n-1] != float64(n-1) {
		t.Fatal("post-failure run produced wrong results")
	}
}

// TestAutoColdRunReportsColdInspect pins the InspectCached semantics under
// ExecAuto: the first run pays the cold inspection and must not claim a
// cache hit; the second run must.
func TestAutoColdRunReportsColdInspect(t *testing.T) {
	n := 300
	l := &Loop{
		N: n, Data: 2 * n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return []int{i + n} },
		Body:   func(i int, v *Values) { v.Store(i, v.Load(i+n)) },
	}
	rt := NewRuntime(l.Data, Options{Workers: 2, Executor: ExecAuto})
	defer rt.Close()
	y := make([]float64, l.Data)
	rep, err := rt.Run(l, y)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executor != "wavefront" || rep.InspectCached {
		t.Fatalf("first auto run: executor=%s cached=%v, want wavefront/false", rep.Executor, rep.InspectCached)
	}
	rep, err = rt.Run(l, y)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InspectCached {
		t.Fatal("second auto run missed the schedule cache")
	}
}

// TestWavefrontRunCleansStandaloneInspect pins the reuse invariant across
// executors: a standalone Inspect and a wavefront run leave the doacross
// writer table clean, so a later doacross-executor run on the same runtime
// does not classify reads against stale writers.
func TestWavefrontRunCleansStandaloneInspect(t *testing.T) {
	n := 200
	l := &Loop{
		N: n, Data: 2 * n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return []int{i + n} },
		Body:   func(i int, v *Values) { v.Store(i, v.Load(i+n)+1) },
	}
	for _, epoch := range []bool{false, true} {
		rt := NewRuntime(l.Data, Options{Workers: 3, Executor: ExecWavefront, UseEpochTables: epoch})
		if _, err := rt.Inspect(l); err != nil {
			t.Fatal(err)
		}
		y := make([]float64, l.Data)
		rep, err := rt.Run(l, y)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Executor != "wavefront" {
			t.Fatalf("executor %q, want wavefront", rep.Executor)
		}
		if !rt.ScratchClean() {
			t.Fatalf("epoch=%v: writer table left dirty after Inspect + wavefront Run", epoch)
		}
		// A no-Reads loop (doacross fallback territory) reading elements l
		// wrote must classify them as untouched, not as stale true deps.
		l2 := &Loop{
			N: n, Data: 2 * n,
			Writes: func(i int) []int { return []int{i + n} },
			Body:   func(i int, v *Values) { v.Store(i+n, v.Load(i)*2) },
		}
		rt.opts.Executor = ExecDoacross
		y2 := make([]float64, l.Data)
		if _, err := rt.Run(l2, y2); err != nil {
			t.Fatal(err)
		}
		rt.Close()
	}
}

// TestPropertyOfflinePickIsLivePick pins the contract doastat and the paper
// tables rely on: replaying the Auto selection offline — AutoCosts.Choose on
// the statistics Runtime.Inspect returns — yields exactly the executor and
// the three predictions an untuned Auto run with the same pinned
// coefficients reports, for scalar runs and full-width RunMulti blocks alike.
func TestPropertyOfflinePickIsLivePick(t *testing.T) {
	var seen [tune.NumExecutors]int
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		var l *Loop
		var y []float64
		if trial%2 == 0 {
			l, y = randomMultiDAGLoop(rng, 30+rng.Intn(120))
		} else {
			l, y = skewedLevelLoop(rng, 4+rng.Intn(12), 2+rng.Intn(10))
			l.BodyMulti = func(i int, v *MultiValues) {
				out := v.Row(i)
				for _, e := range l.Reads(i) {
					row := v.LoadRow(e)
					for c := range out {
						out[c] += row[c]
					}
				}
			}
		}
		costs := AutoCosts{
			BarrierNs:   1 + 2000*rng.Float64(),
			FlagCheckNs: 0.5 + 50*rng.Float64(),
			ClaimNs:     0.5 + 100*rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			costs.IterNs = 200 * rng.Float64()
		}
		for _, workers := range []int{1, 2, 4} {
			for _, nrhs := range []int{1, MaxRHSBlock} {
				rt := NewRuntime(l.Data, Options{
					Workers:      workers,
					Executor:     ExecAuto,
					AutoCosts:    costs,
					WaitStrategy: flags.WaitSpinYield,
				})
				st, err := rt.Inspect(l)
				if err != nil {
					t.Fatal(err)
				}
				pick, tda, twf, tdyn := costs.Choose(st, workers, nrhs)
				var rep Report
				if nrhs == 1 {
					rep, err = rt.Run(l, append([]float64(nil), y...))
				} else {
					rep, err = rt.RunMulti(context.Background(), l, randomColumns(rng, y, nrhs))
				}
				rt.Close()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Executor != tune.ExecutorName(pick) ||
					rep.PredictedDoacrossNs != tda || rep.PredictedWavefrontNs != twf || rep.PredictedDynamicNs != tdyn {
					t.Fatalf("trial %d, %d workers, %d rhs, costs %+v: live run reported %s (%v, %v, %v), offline Choose %s (%v, %v, %v)",
						trial, workers, nrhs, costs, rep.Executor, rep.PredictedDoacrossNs, rep.PredictedWavefrontNs, rep.PredictedDynamicNs,
						tune.ExecutorName(pick), tda, twf, tdyn)
				}
				seen[pick]++
			}
		}
	}
	// The trials are seeded, so this guard is deterministic: every arm must
	// win somewhere, or the property checks less than it claims.
	for e, n := range seen {
		if n == 0 {
			t.Errorf("no trial picked %s (picks %v)", tune.ExecutorName(e), seen)
		}
	}
}
