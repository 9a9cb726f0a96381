package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"doacross/internal/flags"
	"doacross/internal/sched"
	"doacross/internal/sparse"
	"doacross/internal/tune"
)

// randomMultiDAGLoop is randomDAGLoop with a BodyMulti computing exactly the
// same recurrence per column. The multi body deliberately accumulates one
// column at a time (LoadRow per read per column) so a read of the iteration's
// own write element observes the seeded pre-iteration value in every column,
// matching the scalar Load's self-dependence semantics even though earlier
// columns of the row have already been stored.
func randomMultiDAGLoop(rng *rand.Rand, n int) (*Loop, []float64) {
	l, y := randomDAGLoop(rng, n)
	reads := l.Reads
	writes := l.Writes
	l.BodyMulti = func(i int, v *MultiValues) {
		w := writes(i)[0]
		out := v.Row(w)
		for c := 0; c < v.Cols(); c++ {
			s := float64(i) + 1
			for k, e := range reads(i) {
				s = 0.75*s + float64(k+1)*v.LoadRow(e)[c]
			}
			out[c] = s
		}
	}
	return l, y
}

// randomColumns returns nrhs independent random right-hand-side columns, each
// a copy-sized variant of y.
func randomColumns(rng *rand.Rand, y []float64, nrhs int) [][]float64 {
	ys := make([][]float64, nrhs)
	for c := range ys {
		col := make([]float64, len(y))
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		ys[c] = col
	}
	return ys
}

// TestPropertyRunMultiEquivalentToScalarRuns is the acceptance property of
// the blocked multi-RHS path: RunMulti over a block of random columns equals
// running the scalar loop once per column, bitwise, under every executor
// kind, worker count and table implementation — and equals the
// RunSequentialMulti reference.
func TestPropertyRunMultiEquivalentToScalarRuns(t *testing.T) {
	f := func(seed int64, workerBits, execBits, epochBit, nrhsBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		l, y := randomMultiDAGLoop(rng, n)
		if err := l.Validate(); err != nil {
			t.Logf("invalid loop: %v", err)
			return false
		}
		nrhs := 1 + int(nrhsBits)%17
		ys := randomColumns(rng, y, nrhs)

		// Scalar reference: one scalar parallel run per column (the doacross
		// executor is the simplest oracle; scalar-vs-sequential equivalence is
		// covered elsewhere).
		want := make([][]float64, nrhs)
		for c := range ys {
			want[c] = append([]float64(nil), ys[c]...)
			mustRunSequential(t, l, want[c])
		}

		// RunSequentialMulti reference.
		seqMulti := make([][]float64, nrhs)
		for c := range ys {
			seqMulti[c] = append([]float64(nil), ys[c]...)
		}
		if err := RunSequentialMulti(l, seqMulti); err != nil {
			t.Logf("RunSequentialMulti: %v", err)
			return false
		}
		for c := range ys {
			if sparse.VecMaxDiff(want[c], seqMulti[c]) != 0 {
				t.Logf("RunSequentialMulti column %d differs from scalar sequential", c)
				return false
			}
		}

		exec := ExecutorKind(int(execBits) % int(ExecAuto+1))
		opts := Options{
			Workers:        int(workerBits)%7 + 1,
			WaitStrategy:   flags.WaitSpinYield,
			UseEpochTables: epochBit%2 == 0,
			Executor:       exec,
		}
		rt := NewRuntime(l.Data, opts)
		defer rt.Close()
		// Two runs back to back: the second exercises the schedule cache and
		// the reused block buffers.
		for run := 0; run < 2; run++ {
			par := make([][]float64, nrhs)
			for c := range ys {
				par[c] = append([]float64(nil), ys[c]...)
			}
			rep, err := rt.RunMulti(context.Background(), l, par)
			if err != nil {
				t.Logf("executor %v run %d: %v", exec, run, err)
				return false
			}
			if rep.NRHS != nrhs {
				t.Logf("executor %v: NRHS=%d, want %d", exec, rep.NRHS, nrhs)
				return false
			}
			for c := range ys {
				if sparse.VecMaxDiff(want[c], par[c]) != 0 {
					t.Logf("executor %v run %d: column %d differs from sequential", exec, run, c)
					return false
				}
			}
		}
		// The same runtime still runs the scalar path correctly after multi
		// runs (shared scratch must be restored).
		par := append([]float64(nil), y...)
		if _, err := rt.Run(l, par); err != nil {
			t.Logf("scalar run after multi: %v", err)
			return false
		}
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		if sparse.VecMaxDiff(seq, par) != 0 {
			t.Log("scalar run after multi differs from sequential")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRunMultiSplitsWideBlocks drives more columns than MaxRHSBlock through
// one RunMulti call and checks that the block split is invisible to the
// caller and that ColOffset gives the body its absolute column index: the
// body folds in a per-column external term indexed by ColOffset()+c, which
// only comes out right if every block knows where it starts.
func TestRunMultiSplitsWideBlocks(t *testing.T) {
	const n = 64
	nrhs := MaxRHSBlock + MaxRHSBlock/2 + 3
	ext := make([]float64, nrhs)
	for c := range ext {
		ext[c] = float64(c) * 0.125
	}
	// A simple chain: iteration i reads element i-1.
	l := &Loop{
		N:    n,
		Data: n,
		Writes: func(i int) []int {
			return []int{i}
		},
		Reads: func(i int) []int {
			if i == 0 {
				return nil
			}
			return []int{i - 1}
		},
		BodyMulti: func(i int, v *MultiValues) {
			out := v.Row(i)
			if i == 0 {
				for c := range out {
					out[c] = ext[v.ColOffset()+c]
				}
				return
			}
			prev := v.LoadRow(i - 1)
			for c := range out {
				out[c] = 0.5*prev[c] + ext[v.ColOffset()+c]
			}
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, exec := range []ExecutorKind{ExecDoacross, ExecWavefront, ExecWavefrontDynamic, ExecAuto} {
		rt := NewRuntime(n, Options{Workers: 4, Executor: exec})
		ys := make([][]float64, nrhs)
		for c := range ys {
			ys[c] = make([]float64, n)
		}
		rep, err := rt.RunMulti(context.Background(), l, ys)
		if err != nil {
			rt.Close()
			t.Fatalf("executor %v: %v", exec, err)
		}
		if rep.NRHS != nrhs {
			t.Errorf("executor %v: NRHS=%d, want %d", exec, rep.NRHS, nrhs)
		}
		for c := range ys {
			want := 0.0
			for i := 0; i < n; i++ {
				want = 0.5*want + ext[c]
				if i == 0 {
					want = ext[c]
				}
				if ys[c][i] != want {
					t.Fatalf("executor %v: column %d element %d = %v, want %v", exec, c, i, ys[c][i], want)
				}
			}
		}
		rt.Close()
	}
}

// TestRunMultiValidation covers the argument checks of the multi entry
// points: missing columns, short columns, a loop without a multi body, and an
// order length mismatch all fail up front with descriptive errors.
func TestRunMultiValidation(t *testing.T) {
	l := &Loop{
		N:    4,
		Data: 4,
		Writes: func(i int) []int {
			return []int{i}
		},
		BodyMulti: func(i int, v *MultiValues) {
			out := v.Row(i)
			for c := range out {
				out[c] = 1
			}
		},
	}
	rt := NewRuntime(4, Options{Workers: 2})
	defer rt.Close()
	ctx := context.Background()

	if _, err := rt.RunMulti(ctx, l, nil); err == nil {
		t.Error("RunMulti with no columns: want error")
	}
	if _, err := rt.RunMulti(ctx, l, [][]float64{make([]float64, 4), make([]float64, 3)}); err == nil {
		t.Error("RunMulti with a short column: want error")
	}
	scalar := &Loop{N: 4, Data: 4, Writes: l.Writes, Body: func(i int, v *Values) { v.Store(i, 1) }}
	if _, err := rt.RunMulti(ctx, scalar, [][]float64{make([]float64, 4)}); err == nil {
		t.Error("RunMulti without BodyMulti: want error")
	}
	if err := RunSequentialMulti(scalar, [][]float64{make([]float64, 4)}); err == nil {
		t.Error("RunSequentialMulti without BodyMulti: want error")
	}
	if err := RunSequentialMulti(l, nil); err == nil {
		t.Error("RunSequentialMulti with no columns: want error")
	}
	wide := &Loop{N: 4, Data: 8, Writes: l.Writes, BodyMulti: l.BodyMulti}
	big := NewRuntime(4, Options{Workers: 1})
	defer big.Close()
	if _, err := big.RunMulti(ctx, wide, [][]float64{make([]float64, 8)}); err == nil {
		t.Error("RunMulti beyond runtime capacity: want error")
	}
	ort := NewRuntime(4, Options{Workers: 1, Order: []int{0, 1}})
	defer ort.Close()
	if _, err := ort.RunMulti(ctx, l, [][]float64{make([]float64, 4)}); err == nil {
		t.Error("RunMulti with wrong-length order: want error")
	}

	// A loop with only BodyMulti validates, but the scalar entry points
	// reject it.
	if err := l.Validate(); err != nil {
		t.Errorf("BodyMulti-only loop should validate: %v", err)
	}
	if _, err := rt.Run(l, make([]float64, 4)); err == nil {
		t.Error("scalar Run of a BodyMulti-only loop: want error")
	}
}

// TestRunMultiFailureAndCancellation checks the abort paths of the multi
// executor body: a Fail reported by one iteration aborts the whole run and
// surfaces first-error semantics, and a context cancelled mid-run aborts with
// the context's error. The runtime stays reusable after both.
func TestRunMultiFailureAndCancellation(t *testing.T) {
	bang := errors.New("bang")
	n := 48
	l := &Loop{
		N:    n,
		Data: n,
		Writes: func(i int) []int {
			return []int{i}
		},
		Reads: func(i int) []int {
			if i == 0 {
				return nil
			}
			return []int{i - 1}
		},
	}
	l.BodyMulti = func(i int, v *MultiValues) {
		if i == n/2 {
			v.Fail(bang)
			return
		}
		out := v.Row(i)
		for c := range out {
			if i > 0 {
				out[c] = v.LoadRow(i - 1)[c] + 1
			} else {
				out[c] = 1
			}
		}
	}
	for _, exec := range []ExecutorKind{ExecDoacross, ExecWavefront, ExecWavefrontDynamic} {
		for _, epoch := range []bool{false, true} {
			rt := NewRuntime(n, Options{Workers: 4, Executor: exec, UseEpochTables: epoch})
			ys := [][]float64{make([]float64, n), make([]float64, n)}
			if _, err := rt.RunMulti(context.Background(), l, ys); !errors.Is(err, bang) {
				t.Errorf("executor %v epoch=%v: got %v, want %v", exec, epoch, err, bang)
			}
			if !rt.ScratchClean() {
				t.Errorf("executor %v epoch=%v: scratch dirty after failed multi run", exec, epoch)
			}
			rt.Close()
		}
	}

	// Cancellation from within a body: the watcher aborts the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl := &Loop{N: n, Data: n, Writes: l.Writes, Reads: l.Reads}
	cl.BodyMulti = func(i int, v *MultiValues) {
		if i == n/3 {
			cancel()
		}
		out := v.Row(i)
		if i > 0 {
			prev := v.LoadRow(i - 1)
			for c := range out {
				out[c] = prev[c] + 1
			}
		}
	}
	rt := NewRuntime(n, Options{Workers: 4, WaitStrategy: flags.WaitSpinYield})
	defer rt.Close()
	ys := [][]float64{make([]float64, n)}
	if _, err := rt.RunMulti(ctx, cl, ys); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled multi run: got %v, want context.Canceled", err)
	}
	// An already-cancelled context fails before any work.
	if _, err := rt.RunMulti(ctx, cl, ys); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled multi run: got %v, want context.Canceled", err)
	}
}

// TestRunMultiAccessCheck verifies the declared-access sanitizer covers the
// multi path: an undeclared LoadRow and an undeclared Row are both caught
// with an *AccessError naming the offending element.
func TestRunMultiAccessCheck(t *testing.T) {
	n := 16
	// Data has one spare element (index n) no iteration writes, so the
	// deliberately misdeclared Store below is a sanitizer violation without
	// being an actual concurrent write to contended memory.
	base := func() *Loop {
		return &Loop{
			N:    n,
			Data: n + 1,
			Writes: func(i int) []int {
				return []int{i}
			},
			Reads: func(i int) []int {
				if i == 0 {
					return nil
				}
				return []int{i - 1}
			},
		}
	}
	undeclaredRead := base()
	undeclaredRead.BodyMulti = func(i int, v *MultiValues) {
		out := v.Row(i)
		if i == n-1 {
			_ = v.LoadRow(0) // not declared for this iteration
		}
		for c := range out {
			out[c] = 1
		}
	}
	undeclaredWrite := base()
	undeclaredWrite.BodyMulti = func(i int, v *MultiValues) {
		out := v.Row(i)
		for c := range out {
			out[c] = 1
		}
		if i == n-1 {
			v.Store(n, 0, 99) // element n is not this iteration's write target
		}
	}
	for name, l := range map[string]*Loop{"read": undeclaredRead, "write": undeclaredWrite} {
		rt := NewRuntime(n+1, Options{Workers: 2, AccessCheck: true})
		ys := [][]float64{make([]float64, n+1), make([]float64, n+1), make([]float64, n+1)}
		_, err := rt.RunMulti(context.Background(), l, ys)
		var ae *AccessError
		if !errors.As(err, &ae) {
			t.Errorf("undeclared %s: got %v, want *AccessError", name, err)
		}
		rt.Close()
	}

	// No false positive on a correctly declared loop.
	ok := base()
	ok.BodyMulti = func(i int, v *MultiValues) {
		out := v.Row(i)
		for c := range out {
			if i > 0 {
				out[c] = v.LoadRow(i - 1)[c] + 1
			} else {
				out[c] = 1
			}
		}
	}
	rt := NewRuntime(n+1, Options{Workers: 2, AccessCheck: true})
	defer rt.Close()
	ys := [][]float64{make([]float64, n+1)}
	if _, err := rt.RunMulti(context.Background(), ok, ys); err != nil {
		t.Errorf("declared loop: unexpected %v", err)
	}
}

// TestPredictNAmortizesFixedOverheads pins the shape of the cost model's nrhs
// term: the per-iteration work scales with the column count while barriers,
// flag maintenance and claims do not, so the wavefront's fixed L*BarrierNs is
// amortized and the doacross's stall rounds grow.
func TestPredictNAmortizesFixedOverheads(t *testing.T) {
	st := InspectStats{
		Iterations:      256,
		Edges:           255,
		StallWeight:     64,
		Levels:          64,
		CriticalPathLen: 64,
		ScheduleRounds:  64,
		DynamicClaims:   96,
	}
	c := AutoCosts{BarrierNs: 40, FlagCheckNs: 1, ClaimNs: 2, IterNs: 3}
	t1 := c.PredictN(st, 4, 1)
	da1, wf1, dyn1 := t1[tune.Doacross], t1[tune.Wavefront], t1[tune.WavefrontDynamic]
	t32 := c.PredictN(st, 4, 32)
	da32, wf32, dyn32 := t32[tune.Doacross], t32[tune.Wavefront], t32[tune.WavefrontDynamic]
	// Work terms scale: every estimate grows with nrhs.
	if da32 <= da1 || wf32 <= wf1 || dyn32 <= dyn1 {
		t.Fatalf("estimates did not grow with nrhs: (%v,%v,%v) -> (%v,%v,%v)", da1, wf1, dyn1, da32, wf32, dyn32)
	}
	// Fixed overheads amortize: the wavefront's advantage over the doacross
	// must improve with nrhs (the barrier term is constant while the
	// doacross's stall rounds are charged a full column-scaled iteration).
	if wf32-da32 >= wf1-da1 {
		t.Fatalf("wavefront did not gain on doacross with nrhs: margin %v -> %v", wf1-da1, wf32-da32)
	}
	// And per-column cost drops for the barrier-bound wavefront.
	if wf32/32 >= wf1 {
		t.Fatalf("per-column wavefront estimate did not amortize: %v/col at 32 vs %v at 1", wf32/32, wf1)
	}
	// nrhs below one clamps to one.
	if c.PredictN(st, 4, 0) != t1 {
		t.Fatalf("PredictN(...,0) != PredictN(...,1)")
	}
}

// stallChainLoop builds the flip test's loop: depth levels of width equal to
// the worker count, where each level's first iteration depends on the
// previous iteration at distance 1 (a stall the doacross pays and the
// wavefront's barrier absorbs), and the rest of the level depends at distance
// width (fully pipelined). Both scalar and multi bodies are defined.
func stallChainLoop(width, depth int) *Loop {
	n := width * depth
	reads := make([][]int, n)
	for i := range reads {
		if i >= width {
			reads[i] = []int{i - width}
		}
		if i%width == 0 && i > 0 {
			reads[i] = []int{i - 1}
		}
	}
	l := &Loop{
		N:    n,
		Data: n,
		Writes: func(i int) []int {
			return []int{i}
		},
		Reads: func(i int) []int { return reads[i] },
		Body: func(i int, v *Values) {
			s := 1.0
			for _, e := range reads[i] {
				s += v.Load(e)
			}
			v.Store(i, s)
		},
	}
	l.BodyMulti = func(i int, v *MultiValues) {
		out := v.Row(i)
		for c := range out {
			out[c] = 1
		}
		for _, e := range reads[i] {
			row := v.LoadRow(e)
			for c := range out {
				out[c] += row[c]
			}
		}
	}
	return l
}

// TestAutoFlipsWithBlockWidth is the acceptance test of the nrhs-aware Auto
// selection: with coefficients whose barrier cost dominates at one column,
// Auto runs the scalar solve as a doacross, and the same loop on the same
// runtime as a wide RunMulti block as a wavefront — the model's predicted
// flip realized end to end.
func TestAutoFlipsWithBlockWidth(t *testing.T) {
	const workers = 4
	l := stallChainLoop(workers, 64)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Claims priced out of the comparison isolate the doacross/wavefront
	// flip.
	costs := AutoCosts{BarrierNs: 5, FlagCheckNs: 1, ClaimNs: 1e6, IterNs: 2}
	rt := NewRuntime(l.N, Options{Workers: workers, Executor: ExecAuto, AutoCosts: costs})
	defer rt.Close()

	st, err := rt.Inspect(l)
	if err != nil {
		t.Fatal(err)
	}
	// Guard: the model itself must flip between 1 and MaxRHSBlock columns for
	// this loop and these coefficients, or the end-to-end assertion below is
	// vacuous.
	if pick, times := costs.Choose(st, workers, 1); pick != tune.Doacross {
		t.Fatalf("model picks %v at nrhs=1 (times %v); the flip test needs doacross", tune.ExecutorName(pick), times)
	}
	if pick, times := costs.Choose(st, workers, MaxRHSBlock); pick != tune.Wavefront {
		t.Fatalf("model picks %v at nrhs=%d (times %v); the flip test needs wavefront", tune.ExecutorName(pick), MaxRHSBlock, times)
	}

	y := make([]float64, l.N)
	rep, err := rt.Run(l, y)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executor != "doacross" {
		t.Errorf("scalar Auto run used %q, want doacross", rep.Executor)
	}

	ys := make([][]float64, MaxRHSBlock)
	for c := range ys {
		ys[c] = make([]float64, l.N)
	}
	mrep, err := rt.RunMulti(context.Background(), l, ys)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Executor != "wavefront" {
		t.Errorf("multi Auto run used %q, want wavefront", mrep.Executor)
	}
	if mrep.PredictedWavefrontNs >= mrep.PredictedDoacrossNs {
		t.Errorf("multi report predictions do not support the pick: wf=%v da=%v",
			mrep.PredictedWavefrontNs, mrep.PredictedDoacrossNs)
	}
	// The multi result must still be correct after the flip.
	seq := make([][]float64, 1)
	seq[0] = make([]float64, l.N)
	if err := RunSequentialMulti(l, seq); err != nil {
		t.Fatal(err)
	}
	for c := range ys {
		if sparse.VecMaxDiff(seq[0], ys[c]) != 0 {
			t.Fatalf("column %d differs from sequential after Auto flip", c)
		}
	}
}

// TestRunMultiCountersAndSchedules runs the multi path under the Dynamic
// scheduling policy and checks the aggregated dependency counters are
// reported: one classification per element row, regardless of the column
// count.
func TestRunMultiCountersAndSchedules(t *testing.T) {
	l := stallChainLoop(4, 16)
	rt := NewRuntime(l.N, Options{Workers: 3, Policy: sched.Dynamic, Chunk: 2})
	defer rt.Close()
	ys := make([][]float64, 8)
	for c := range ys {
		ys[c] = make([]float64, l.N)
	}
	rep, err := rt.RunMulti(context.Background(), l, ys)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrueDeps+rep.SelfDeps+rep.AntiOrNone == 0 {
		t.Error("multi report carries no dependency counters")
	}
	// Each read is classified once per row, not once per column: the total
	// classifications cannot exceed the loop's read count.
	reads := 0
	for i := 0; i < l.N; i++ {
		reads += len(l.Reads(i))
	}
	if got := rep.TrueDeps + rep.SelfDeps + rep.AntiOrNone; got > int64(reads) {
		t.Errorf("%d classifications for %d reads: rows are being classified per column", got, reads)
	}
}
