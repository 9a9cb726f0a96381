package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"doacross/internal/depgraph"
	"doacross/internal/flags"
)

// withRowBody gives a randomDAGLoop-shaped loop a BodyMulti that loads every
// declared read exactly once per iteration, as Body does, so a RunMulti
// traversal classifies the same reads as a scalar run. Column c of the
// written row is computed from column c of each loaded row and only then
// stored, so a self-dependence row (which aliases the written one) still
// yields the seeded pre-iteration value.
func withRowBody(l *Loop) {
	reads, writes := l.Reads, l.Writes
	l.BodyMulti = func(i int, v *MultiValues) {
		rs := reads(i)
		rows := make([][]float64, len(rs))
		for k, e := range rs {
			rows[k] = v.LoadRow(e)
		}
		out := v.Row(writes(i)[0])
		for c := range out {
			s := float64(i) + 1
			for k, row := range rows {
				s = 0.75*s + float64(k+1)*row[c]
			}
			out[c] = s
		}
	}
}

// depCounts are the three dependence counters a run reports.
type depCounts struct{ trueDeps, selfDeps, antiOrNone int64 }

func countsOf(rep Report) depCounts { return depCounts{rep.TrueDeps, rep.SelfDeps, rep.AntiOrNone} }

// naiveCounts classifies every declared read of l against the iteration that
// writes its element, straight from Writes and Reads: a read of an element
// written by an earlier iteration is a true dependence, by the reading
// iteration a self dependence, and by a later one or none an
// anti-dependence or no dependence.
func naiveCounts(l *Loop) depCounts {
	writer := map[int]int{}
	for i := 0; i < l.N; i++ {
		for _, e := range l.Writes(i) {
			writer[e] = i
		}
	}
	var c depCounts
	for i := 0; i < l.N; i++ {
		for _, e := range l.Reads(i) {
			w, ok := writer[e]
			switch {
			case ok && w < i:
				c.trueDeps++
			case ok && w == i:
				c.selfDeps++
			default:
				c.antiOrNone++
			}
		}
	}
	return c
}

// linearDAGLoop is randomDAGLoop with a linear left-hand-side subscript:
// iteration i writes element C*i+D and reads random elements, some written
// earlier, some later, some by itself and some never.
func linearDAGLoop(rng *rand.Rand, n int) (*Loop, LinearSubscript, []float64) {
	sub := LinearSubscript{C: 1 + rng.Intn(3), D: rng.Intn(4)}
	dataLen := sub.C*(n-1) + sub.D + 1 + rng.Intn(8)
	reads := make([][]int, n)
	for i := range reads {
		for j := rng.Intn(4); j > 0; j-- {
			reads[i] = append(reads[i], rng.Intn(dataLen))
		}
		if rng.Intn(4) == 0 {
			reads[i] = append(reads[i], sub.C*i+sub.D)
		}
	}
	l := &Loop{
		N:      n,
		Data:   dataLen,
		Writes: sub.WritesFunc(),
		Reads:  func(i int) []int { return reads[i] },
		Body: func(i int, v *Values) {
			s := float64(i) + 1
			for k, e := range reads[i] {
				s = 0.75*s + float64(k+1)*v.Load(e)
			}
			v.Store(sub.C*i+sub.D, s)
		},
	}
	y := make([]float64, dataLen)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	return l, sub, y
}

// TestPropertyCountersAgreeAcrossRunPaths checks the dependence counters,
// not just the values: every run path must report the TrueDeps, SelfDeps and
// AntiOrNone a naive classification of the declared reads gives. A path that
// puts a read in the wrong class without changing its value (a self
// dependence counted as a true one under a check that never waits) is caught
// here and nowhere else. The paths are the doacross under both reset
// protocols and every wait strategy, the static and dynamic wavefronts,
// RunOracle on the depgraph predecessors, RunMulti at widths 1 and 3 under
// each of those executors, and RunLinear on a linear-subscript loop. Each
// path runs twice on one runtime, so the second run starts from the first's
// postprocessing.
func TestPropertyCountersAgreeAcrossRunPaths(t *testing.T) {
	f := func(seed int64, workerBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := int(workerBits)%3 + 1
		// Covers the data arrays of both loops below (at most 240 and 369).
		const dataLen = 4 * 120
		ok := true
		check := func(path string, opts Options, want depCounts, do func(rt *Runtime) (Report, error)) {
			opts.Workers = workers
			rt := NewRuntime(dataLen, opts)
			defer rt.Close()
			for run := 0; run < 2; run++ {
				rep, err := do(rt)
				if err != nil {
					t.Logf("%s run %d: %v", path, run, err)
					ok = false
					return
				}
				if got := countsOf(rep); got != want {
					t.Logf("%s run %d (P=%d): counters %+v, want %+v", path, run, workers, got, want)
					ok = false
				}
			}
		}

		l, y := randomDAGLoop(rng, 30+rng.Intn(90))
		withRowBody(l)
		want := naiveCounts(l)
		scalar := func(rt *Runtime) (Report, error) { return rt.Run(l, append([]float64(nil), y...)) }
		for _, epoch := range []bool{false, true} {
			for _, ws := range []flags.WaitStrategy{flags.WaitSpin, flags.WaitSpinYield, flags.WaitNotify} {
				check(fmt.Sprintf("doacross epoch=%v %v", epoch, ws),
					Options{UseEpochTables: epoch, WaitStrategy: ws}, want, scalar)
			}
		}
		for _, exec := range []ExecutorKind{ExecWavefront, ExecWavefrontDynamic} {
			check(exec.String(), Options{Executor: exec}, want, scalar)
		}
		preds := depgraph.Build(depgraph.Access{N: l.N, Writes: l.Writes, Reads: l.Reads}).Preds
		for _, epoch := range []bool{false, true} {
			check(fmt.Sprintf("oracle epoch=%v", epoch), Options{UseEpochTables: epoch, WaitStrategy: flags.WaitSpinYield}, want,
				func(rt *Runtime) (Report, error) { return rt.RunOracle(l, append([]float64(nil), y...), preds) })
		}
		for _, exec := range []ExecutorKind{ExecDoacross, ExecWavefront, ExecWavefrontDynamic} {
			for _, nc := range []int{1, 3} {
				check(fmt.Sprintf("%v RunMulti width %d", exec, nc), Options{Executor: exec, WaitStrategy: flags.WaitSpinYield}, want,
					func(rt *Runtime) (Report, error) {
						return rt.RunMulti(context.Background(), l, randomColumns(rng, y, nc))
					})
			}
		}

		ll, sub, ly := linearDAGLoop(rng, 30+rng.Intn(90))
		for _, epoch := range []bool{false, true} {
			check(fmt.Sprintf("linear epoch=%v", epoch), Options{UseEpochTables: epoch, WaitStrategy: flags.WaitSpinYield}, naiveCounts(ll),
				func(rt *Runtime) (Report, error) { return rt.RunLinear(ll, append([]float64(nil), ly...), sub) })
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
