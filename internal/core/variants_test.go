package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"doacross/internal/depgraph"
	"doacross/internal/flags"
	"doacross/internal/sched"
	"doacross/internal/sparse"
)

func TestBlockedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		l, y := randomFigure1(rng, 150)
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		for _, block := range []int{1, 7, 32, 150, 500} {
			par := append([]float64(nil), y...)
			rt := NewRuntime(l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
			rep, err := rt.RunBlocked(l, par, block)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.VecMaxDiff(seq, par); d != 0 {
				t.Fatalf("trial %d block %d: mismatch %v", trial, block, d)
			}
			if rep.Order != "blocked" {
				t.Errorf("report order = %q", rep.Order)
			}
			if !rt.ScratchClean() {
				t.Errorf("block %d: scratch not clean after blocked run", block)
			}
		}
	}
}

func TestBlockedRejectsBadArguments(t *testing.T) {
	l := &Loop{N: 4, Data: 4, Writes: func(i int) []int { return []int{i} }, Body: func(i int, v *Values) {}}
	rt := NewRuntime(4, Options{Workers: 2})
	if _, err := rt.RunBlocked(l, make([]float64, 4), 0); err == nil {
		t.Error("zero block size accepted")
	}
	rtOrdered := NewRuntime(4, Options{Workers: 2, Order: []int{0, 1, 2, 3}})
	if _, err := rtOrdered.RunBlocked(l, make([]float64, 4), 2); err == nil {
		t.Error("blocked run with reordering accepted")
	}
}

func TestLinearSubscriptWriter(t *testing.T) {
	s := LinearSubscript{C: 2, D: 0} // a(i) = 2i, the paper's Section 3.1 choice
	if s.Writer(4, 10) != 2 {
		t.Errorf("Writer(4) = %d, want 2", s.Writer(4, 10))
	}
	if s.Writer(5, 10) != -1 {
		t.Error("odd element should have no writer")
	}
	if s.Writer(40, 10) != -1 {
		t.Error("element beyond the iteration range should have no writer")
	}
	if s.Writer(-2, 10) != -1 {
		t.Error("negative writer index should be rejected")
	}
	if (LinearSubscript{C: 0}).Writer(3, 5) != -1 {
		t.Error("degenerate subscript should report no writer")
	}
	w := s.WritesFunc()
	if got := w(3); len(got) != 1 || got[0] != 6 {
		t.Errorf("WritesFunc(3) = %v, want [6]", got)
	}
}

func TestLinearVariantMatchesSequential(t *testing.T) {
	// y[2i] = y[2i - 2k] + i with a(i) = 2i: the linear-subscript variant
	// must agree with both the sequential loop and the inspector-based
	// doacross.
	n := 300
	dataLen := 2*n + 8
	sub := LinearSubscript{C: 2, D: 0}
	b := make([]int, n)
	rng := rand.New(rand.NewSource(5))
	for i := range b {
		b[i] = rng.Intn(dataLen)
	}
	l := &Loop{
		N: n, Data: dataLen,
		Writes: sub.WritesFunc(),
		Reads:  func(i int) []int { return b[i : i+1] },
		Body: func(i int, v *Values) {
			v.Store(2*i, v.Load(b[i])+float64(i))
		},
	}
	y := make([]float64, dataLen)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)

	parInspector := append([]float64(nil), y...)
	rt1 := NewRuntime(dataLen, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	if _, err := rt1.Run(l, parInspector); err != nil {
		t.Fatal(err)
	}
	parLinear := append([]float64(nil), y...)
	rt2 := NewRuntime(dataLen, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	rep, err := rt2.RunLinear(l, parLinear, sub)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(seq, parInspector); d != 0 {
		t.Fatalf("inspector variant mismatch %v", d)
	}
	if d := sparse.VecMaxDiff(seq, parLinear); d != 0 {
		t.Fatalf("linear variant mismatch %v", d)
	}
	if rep.PreTime != 0 {
		t.Error("linear variant should not spend time in an inspector phase")
	}
	if rep.Order != "linear-subscript" {
		t.Errorf("report order = %q", rep.Order)
	}
}

func TestLinearVariantErrors(t *testing.T) {
	l := &Loop{N: 2, Data: 4, Writes: func(i int) []int { return []int{2 * i} }, Body: func(i int, v *Values) {}}
	rt := NewRuntime(4, Options{Workers: 1})
	if _, err := rt.RunLinear(l, make([]float64, 4), LinearSubscript{C: 0}); err == nil {
		t.Error("C=0 accepted")
	}
	small := NewRuntime(2, Options{Workers: 1})
	if _, err := small.RunLinear(l, make([]float64, 4), LinearSubscript{C: 2}); err == nil {
		t.Error("oversized loop accepted")
	}
}

func TestLinearVariantEpochTables(t *testing.T) {
	n := 100
	sub := LinearSubscript{C: 1, D: 0}
	l := &Loop{
		N: n, Data: n,
		Writes: sub.WritesFunc(),
		Body: func(i int, v *Values) {
			if i == 0 {
				v.Store(0, 1)
				return
			}
			v.Store(i, v.Load(i-1)*1.01)
		},
	}
	y := make([]float64, n)
	seq := append([]float64(nil), y...)
	mustRunSequential(t, l, seq)
	par := append([]float64(nil), y...)
	rt := NewRuntime(n, Options{Workers: 3, UseEpochTables: true, WaitStrategy: flags.WaitSpinYield})
	if _, err := rt.RunLinear(l, par, sub); err != nil {
		t.Fatal(err)
	}
	if d := sparse.VecMaxDiff(seq, par); d != 0 {
		t.Fatalf("linear+epoch mismatch %v", d)
	}
}

func TestDoallOnIndependentLoop(t *testing.T) {
	n := 500
	l := &Loop{
		N: n, Data: n,
		Writes: func(i int) []int { return []int{i} },
		Body: func(i int, v *Values) {
			v.Store(i, float64(i)*2)
		},
	}
	y := make([]float64, n)
	rt := NewRuntime(n, Options{Workers: 4})
	rep, err := rt.RunDoall(l, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != float64(i)*2 {
			t.Fatalf("y[%d] = %v", i, y[i])
		}
	}
	if rep.Order != "doall" || rep.Iterations != n {
		t.Errorf("doall report: %+v", rep)
	}
}

func TestOracleMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		l, y := randomFigure1(rng, 150)
		g := depgraph.Build(depgraph.Access{N: l.N, Writes: l.Writes, Reads: l.Reads})
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		par := append([]float64(nil), y...)
		rt := NewRuntime(l.Data, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
		rep, err := rt.RunOracle(l, par, g.Preds)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.VecMaxDiff(seq, par); d != 0 {
			t.Fatalf("trial %d: oracle mismatch %v", trial, d)
		}
		if rep.Order != "oracle" {
			t.Errorf("report order = %q", rep.Order)
		}
	}
}

// TestLinearAndOracleCollectTrace checks that the inspector-free variants run
// through the runtime's shared iteration body: on a CollectTrace runtime they
// still match the sequential loop, and each leaves a trace with one entry per
// iteration.
func TestLinearAndOracleCollectTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 150
	sub := LinearSubscript{C: 2, D: 0}
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = sub.C*i + sub.D
		b[i] = rng.Intn(2 * n)
	}
	linear := figure1Loop(a, b, 2*n)
	oracle, _ := randomFigure1(rng, n)
	preds := depgraph.Build(depgraph.Access{N: oracle.N, Writes: oracle.Writes, Reads: oracle.Reads}).Preds
	for _, tc := range []struct {
		name string
		l    *Loop
		run  func(rt *Runtime, y []float64) (Report, error)
	}{
		{"linear", linear, func(rt *Runtime, y []float64) (Report, error) { return rt.RunLinear(linear, y, sub) }},
		{"oracle", oracle, func(rt *Runtime, y []float64) (Report, error) { return rt.RunOracle(oracle, y, preds) }},
	} {
		y := make([]float64, tc.l.Data)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		seq := append([]float64(nil), y...)
		mustRunSequential(t, tc.l, seq)
		rt := NewRuntime(tc.l.Data, Options{Workers: 3, WaitStrategy: flags.WaitSpinYield, CollectTrace: true})
		_, err := tc.run(rt, y)
		rt.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := sparse.VecMaxDiff(seq, y); d != 0 {
			t.Fatalf("%s: mismatch %v", tc.name, d)
		}
		tr := rt.Trace()
		if tr == nil || len(tr.Iterations) != n {
			t.Fatalf("%s: trace %v, want %d entries", tc.name, tr, n)
		}
		for pos, it := range tr.Iterations {
			if it.Iteration != pos || it.Position != pos || it.Worker < 0 || it.Worker >= 3 || it.End < it.Start {
				t.Fatalf("%s: trace entry %d = %+v", tc.name, pos, it)
			}
		}
	}
}

// TestVariantsUnderEveryPolicy runs the inspector-free variants, which submit
// their positions to the pool directly — RunLinear, RunOracle and RunDoall —
// under every scheduling policy (Dynamic both at the default chunk, Chunk 0,
// and at an explicit one) and at worker counts below and above the iteration
// count, and checks each against the sequential loop.
func TestVariantsUnderEveryPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{5, 90} {
		b := make([]int, n)
		for i := range b {
			b[i] = rng.Intn(n)
		}
		sub := LinearSubscript{C: 1, D: 0}
		l := &Loop{
			N: n, Data: n,
			Writes: sub.WritesFunc(),
			Reads:  func(i int) []int { return b[i : i+1] },
			Body:   func(i int, v *Values) { v.Store(i, v.Load(b[i])+float64(i)) },
		}
		doall := &Loop{N: n, Data: n, Writes: sub.WritesFunc(), Body: func(i int, v *Values) { v.Store(i, 2*v.Load(i)+1) }}
		preds := depgraph.Build(depgraph.Access{N: n, Writes: l.Writes, Reads: l.Reads}).Preds
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		seqDoall := append([]float64(nil), y...)
		mustRunSequential(t, doall, seqDoall)

		for _, cfg := range []struct {
			policy sched.Policy
			chunk  int
		}{{sched.Block, 0}, {sched.Cyclic, 0}, {sched.Dynamic, 0}, {sched.Dynamic, 3}} {
			for _, workers := range []int{1, 3, 8} {
				rt := NewRuntime(n, Options{Workers: workers, Policy: cfg.policy, Chunk: cfg.chunk, WaitStrategy: flags.WaitSpinYield})
				for name, run := range map[string]func(y []float64) error{
					"linear": func(y []float64) error { _, err := rt.RunLinear(l, y, sub); return err },
					"oracle": func(y []float64) error { _, err := rt.RunOracle(l, y, preds); return err },
				} {
					par := append([]float64(nil), y...)
					if err := run(par); err != nil {
						t.Fatalf("n=%d %v chunk %d P=%d %s: %v", n, cfg.policy, cfg.chunk, workers, name, err)
					}
					if d := sparse.VecMaxDiff(seq, par); d != 0 {
						t.Fatalf("n=%d %v chunk %d P=%d %s: mismatch %v", n, cfg.policy, cfg.chunk, workers, name, d)
					}
				}
				par := append([]float64(nil), y...)
				if _, err := rt.RunDoall(doall, par); err != nil {
					t.Fatalf("n=%d %v chunk %d P=%d doall: %v", n, cfg.policy, cfg.chunk, workers, err)
				}
				if d := sparse.VecMaxDiff(seqDoall, par); d != 0 {
					t.Fatalf("n=%d %v chunk %d P=%d doall: mismatch %v", n, cfg.policy, cfg.chunk, workers, d)
				}
				rt.Close()
			}
		}
	}
}

func TestOracleErrors(t *testing.T) {
	l := &Loop{N: 3, Data: 3, Writes: func(i int) []int { return []int{i} }, Body: func(i int, v *Values) {}}
	rt := NewRuntime(3, Options{Workers: 1})
	if _, err := rt.RunOracle(l, make([]float64, 3), make([][]int32, 2)); err == nil {
		t.Error("wrong-length predecessor list accepted")
	}
	small := NewRuntime(1, Options{Workers: 1})
	if _, err := small.RunOracle(l, make([]float64, 3), make([][]int32, 3)); err == nil {
		t.Error("oversized loop accepted")
	}
}

func TestOptionsAccessors(t *testing.T) {
	rt := NewRuntime(8, Options{Workers: 3})
	if rt.Workers() != 3 {
		t.Errorf("Workers() = %d", rt.Workers())
	}
	if rt.Options().Workers != 3 {
		t.Error("Options() lost configuration")
	}
	zero := NewRuntime(8, Options{})
	if zero.Workers() != 1 {
		t.Error("zero workers should clamp to 1")
	}
}

// TestVariantsRejectReorderedRuntime is the Run* validation audit: every
// variant whose executor walks positions in natural order must reject a
// runtime configured with a doconsider execution order up front, instead of
// silently running the natural order and misattributing the results.
// (RunBlocked already did; RunLinear and RunOracle used to fall through.)
func TestVariantsRejectReorderedRuntime(t *testing.T) {
	sub := LinearSubscript{C: 1, D: 0}
	l := &Loop{N: 4, Data: 4, Writes: sub.WritesFunc(), Body: func(i int, v *Values) { v.Store(i, 1) }}
	rt := NewRuntime(4, Options{Workers: 2, Order: []int{3, 2, 1, 0}})
	defer rt.Close()
	y := make([]float64, 4)
	if _, err := rt.RunBlocked(l, y, -1); err == nil {
		t.Error("negative block size accepted")
	}
	if _, err := rt.RunLinear(l, y, sub); err == nil {
		t.Error("RunLinear on a reordered runtime accepted")
	}
	if _, err := rt.RunOracle(l, y, make([][]int32, 4)); err == nil {
		t.Error("RunOracle on a reordered runtime accepted")
	}
	if _, err := rt.RunMulti(context.Background(), l, [][]float64{y}); err == nil {
		// The multi path validates the order length like RunContext does; a
		// wrong-length order is caught in TestRunMultiValidation, and a
		// correct-length one is honored, so no rejection here — just make
		// sure the BodyMulti requirement fires first.
		t.Error("RunMulti without BodyMulti accepted")
	}
}

// TestVariantsSerializeWithRuns runs RunContext and RunLinear concurrently on
// one 2-worker runtime. Both use the runtime's abort state, counters,
// per-worker Values, renaming buffer and ready flags, so the variant must
// serialize on the run mutex like every entry point, and each goroutine's
// results must equal the sequential loop's. Run it under -race.
func TestVariantsSerializeWithRuns(t *testing.T) {
	const n, runs = 2000, 50
	l := chainLoop(n)
	want := make([]float64, n)
	mustRunSequential(t, l, want)
	rt := NewRuntime(n, Options{Workers: 2, WaitStrategy: flags.WaitSpinYield})
	defer rt.Close()
	entries := map[string]func(y []float64) (Report, error){
		"RunContext": func(y []float64) (Report, error) { return rt.RunContext(context.Background(), l, y) },
		"RunLinear":  func(y []float64) (Report, error) { return rt.RunLinear(l, y, LinearSubscript{C: 1}) },
	}
	errs := make(chan error, len(entries))
	var wg sync.WaitGroup
	for name, run := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, n)
			for r := 0; r < runs; r++ {
				clear(y)
				if _, err := run(y); err != nil {
					errs <- fmt.Errorf("%s run %d: %v", name, r, err)
					return
				}
				for i := range y {
					if y[i] != want[i] {
						errs <- fmt.Errorf("%s run %d: y[%d] = %v, sequential %v", name, r, i, y[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
