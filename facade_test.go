// Tests for the facade's cancellation and failure paths: context cancelled
// mid-run, deadline expiry, body errors, Values.Fail, recovered body panics,
// released waiters under every wait strategy — and, after every abort, that
// the runtime and its worker pool remain fully reusable. CI runs this file
// under -race.
package doacross_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"doacross"
)

// chainLoop builds the loop y[i] = y[i-1] + 1 (a pure dependency chain).
func chainLoop(n int) *doacross.Loop {
	loop, err := doacross.NewLoop(n, n).
		Writes(func(i int) []int { return []int{i} }).
		Body(func(i int, v *doacross.Values) {
			if i == 0 {
				v.Store(0, 1)
				return
			}
			v.Store(i, v.Load(i-1)+1)
		}).
		Build()
	if err != nil {
		panic(err)
	}
	return loop
}

// checkReusable verifies the paper's reuse invariant after an aborted run:
// the scratch state is pristine and a full clean run on the same runtime
// produces the sequential result.
func checkReusable(t *testing.T, rt *doacross.Runtime, n int) {
	t.Helper()
	if !rt.ScratchClean() {
		t.Fatal("scratch state not restored after aborted run")
	}
	loop := chainLoop(n)
	y := make([]float64, n)
	if _, err := rt.Run(context.Background(), loop, y); err != nil {
		t.Fatalf("runtime not reusable after abort: %v", err)
	}
	for i := range y {
		if y[i] != float64(i+1) {
			t.Fatalf("post-abort run wrong: y[%d] = %v, want %v", i, y[i], i+1)
		}
	}
}

func TestRunContextCancelledMidRun(t *testing.T) {
	const n = 4096
	release := make(chan struct{})
	loop, err := doacross.NewLoop(n, n).
		Writes(func(i int) []int { return []int{i} }).
		Body(func(i int, v *doacross.Values) {
			if i == 0 {
				<-release // hold the run open until the test has cancelled
			}
			v.Store(i, 1)
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}

	rt, err := doacross.New(n,
		doacross.WithWorkers(4),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(16),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	y := make([]float64, n)
	go func() {
		_, err := rt.Run(ctx, loop, y)
		done <- err
	}()
	cancel()
	// Give the context watcher time to flag the abort before the blocked
	// iteration is released; the run cannot finish until release closes, so
	// this only orders the abort ahead of iteration 0's completion.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return: pool or barrier leaked")
	}
	checkReusable(t, rt, n)
}

func TestRunDeadlineExceeded(t *testing.T) {
	const n = 64
	loop, err := doacross.NewLoop(n, n).
		Writes(func(i int) []int { return []int{i} }).
		Body(func(i int, v *doacross.Values) {
			if i == 0 {
				time.Sleep(200 * time.Millisecond)
			}
			v.Store(i, 1)
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := doacross.New(n, doacross.WithWorkers(2), doacross.WithWaitStrategy(doacross.WaitSpinYield))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := rt.Run(ctx, loop, make([]float64, n)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
	checkReusable(t, rt, n)
}

func TestRunPreCancelledContext(t *testing.T) {
	const n = 16
	rt, err := doacross.New(n, doacross.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Run(ctx, chainLoop(n), make([]float64, n)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	checkReusable(t, rt, n)
}

func TestBodyErrAbortsRun(t *testing.T) {
	const n = 2048
	sentinel := errors.New("iteration 137 failed")
	loop, err := doacross.NewLoop(n, n).
		Writes(func(i int) []int { return []int{i} }).
		BodyErr(func(i int, v *doacross.Values) error {
			if i == 137 {
				return sentinel
			}
			v.Store(i, 1)
			return nil
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := doacross.New(n,
		doacross.WithWorkers(4),
		doacross.WithPolicy(doacross.Dynamic),
		doacross.WithChunk(32),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Run(context.Background(), loop, make([]float64, n)); !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want the body error", err)
	}
	checkReusable(t, rt, n)
}

func TestValuesFailAbortsRun(t *testing.T) {
	const n = 1024
	sentinel := errors.New("negative pivot")
	loop, err := doacross.NewLoop(n, n).
		Writes(func(i int) []int { return []int{i} }).
		Body(func(i int, v *doacross.Values) {
			if i == 511 {
				v.Fail(sentinel)
				return
			}
			v.Store(i, 1)
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := doacross.New(n, doacross.WithWorkers(4), doacross.WithWaitStrategy(doacross.WaitSpinYield))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Run(context.Background(), loop, make([]float64, n)); !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want the Fail error", err)
	}
	checkReusable(t, rt, n)
}

func TestBodyPanicRecovered(t *testing.T) {
	const n = 1024
	loop, err := doacross.NewLoop(n, n).
		Writes(func(i int) []int { return []int{i} }).
		Body(func(i int, v *doacross.Values) {
			if i == 42 {
				panic("boom at 42")
			}
			v.Store(i, 1)
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := doacross.New(n,
		doacross.WithWorkers(4),
		doacross.WithPolicy(doacross.Cyclic),
		doacross.WithWaitStrategy(doacross.WaitSpinYield),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, err = rt.Run(context.Background(), loop, make([]float64, n))
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "boom at 42") {
		t.Fatalf("Run returned %v, want a recovered panic error", err)
	}
	checkReusable(t, rt, n)
}

// TestWritesPanicRecovered checks that a panic in the user's Writes closure
// during the inspector phase is recovered into an error too, not just panics
// in the executor body.
func TestWritesPanicRecovered(t *testing.T) {
	const n = 256
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	loop := &doacross.Loop{
		N:    n,
		Data: n,
		Writes: func(i int) []int {
			if i == 99 {
				panic("broken Writes")
			}
			return ids[i : i+1]
		},
		Body: func(i int, v *doacross.Values) { v.Store(i, 1) },
	}
	rt, err := doacross.New(n, doacross.WithWorkers(4), doacross.WithWaitStrategy(doacross.WaitSpinYield))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, err = rt.Run(context.Background(), loop, make([]float64, n))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Run returned %v, want a recovered Writes panic", err)
	}
}

// TestSequentialShortData checks RunSequential's up-front length validation.
func TestSequentialShortData(t *testing.T) {
	loop := chainLoop(16)
	if err := doacross.RunSequential(loop, make([]float64, 8)); err == nil || !strings.Contains(err.Error(), "shorter") {
		t.Fatalf("RunSequential accepted a short data slice: %v", err)
	}
}

// TestAbortReleasesWaiters forces one worker to wait on an element whose
// writing iteration fails, under every wait strategy (including the parked
// notify waiter and the epoch-table ablation): the abort must release the
// waiter instead of deadlocking the run.
func TestAbortReleasesWaiters(t *testing.T) {
	cases := []struct {
		name string
		opts []doacross.Option
	}{
		{"spin", []doacross.Option{doacross.WithWaitStrategy(doacross.WaitSpin)}},
		{"spin-yield", []doacross.Option{doacross.WithWaitStrategy(doacross.WaitSpinYield)}},
		{"notify", []doacross.Option{doacross.WithWaitStrategy(doacross.WaitNotify)}},
		{"spin-yield-epoch", []doacross.Option{doacross.WithWaitStrategy(doacross.WaitSpinYield), doacross.WithEpochTables()}},
		{"notify-epoch", []doacross.Option{doacross.WithWaitStrategy(doacross.WaitNotify), doacross.WithEpochTables()}},
	}
	sentinel := errors.New("writer failed")
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const n = 2
			loop, err := doacross.NewLoop(n, n).
				Writes(func(i int) []int { return []int{i} }).
				BodyErr(func(i int, v *doacross.Values) error {
					if i == 0 {
						// Let iteration 1 reach its wait on element 0 first.
						time.Sleep(20 * time.Millisecond)
						return sentinel
					}
					v.Store(1, v.Load(0)+1)
					return nil
				}).
				Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := append([]doacross.Option{doacross.WithWorkers(2), doacross.WithPolicy(doacross.Block)}, tc.opts...)
			rt, err := doacross.New(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			done := make(chan error, 1)
			go func() {
				_, err := rt.Run(context.Background(), loop, make([]float64, n))
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, sentinel) {
					t.Fatalf("Run returned %v, want the writer's error", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run deadlocked: abort did not release the waiting iteration")
			}
			checkReusable(t, rt, n)
		})
	}
}

// TestShortDataValidation checks the up-front length validation of every run
// variant: a y shorter than the loop's data length must yield a descriptive
// error, not an index panic inside a worker.
func TestShortDataValidation(t *testing.T) {
	const n = 64
	loop := chainLoop(n)
	rt, err := doacross.New(n, doacross.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	short := make([]float64, n-1)

	if _, err := rt.Run(context.Background(), loop, short); err == nil || !strings.Contains(err.Error(), "shorter") {
		t.Fatalf("Run accepted a short data slice: %v", err)
	}
	if _, err := rt.RunBlocked(context.Background(), loop, short, 16); err == nil || !strings.Contains(err.Error(), "shorter") {
		t.Fatalf("RunBlocked accepted a short data slice: %v", err)
	}
	if _, err := rt.RunDoall(loop, short); err == nil || !strings.Contains(err.Error(), "shorter") {
		t.Fatalf("RunDoall accepted a short data slice: %v", err)
	}
	if _, err := rt.RunLinear(loop, short, doacross.LinearSubscript{C: 1}); err == nil || !strings.Contains(err.Error(), "shorter") {
		t.Fatalf("RunLinear accepted a short data slice: %v", err)
	}
}

// TestSolverContextCancellation checks cancellation through the triangular
// solver surface: a pre-cancelled context aborts SolveContext and leaves the
// solver reusable.
func TestSolverContextCancellation(t *testing.T) {
	const n = 256
	// A bidiagonal lower factor: row i depends on row i-1.
	rowPtr := make([]int, n+1)
	var col []int
	var val []float64
	for i := 1; i < n; i++ {
		col = append(col, i-1)
		val = append(val, 0.5)
		rowPtr[i+1] = len(col)
	}
	rowPtr[1] = 0
	tmat := &doacross.Triangular{N: n, Lower: true, UnitDiag: true, RowPtr: rowPtr, Col: col, Val: val}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}

	s, err := doacross.NewSolver(tmat, doacross.WithWorkers(2), doacross.WithWaitStrategy(doacross.WaitSpinYield))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.SolveContext(ctx, rhs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveContext returned %v, want context.Canceled", err)
	}

	want := doacross.SolveSequential(tmat, rhs)
	got, _, err := s.Solve(rhs, nil)
	if err != nil {
		t.Fatalf("solver not reusable after cancelled solve: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-cancel solve wrong at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestOptionValidation checks that invalid functional options surface as
// construction errors.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []doacross.Option
	}{
		{"zero workers", []doacross.Option{doacross.WithWorkers(0)}},
		{"negative chunk", []doacross.Option{doacross.WithChunk(-1)}},
		{"bad policy", []doacross.Option{doacross.WithPolicy(doacross.Policy(99))}},
		{"bad wait strategy", []doacross.Option{doacross.WithWaitStrategy(doacross.WaitStrategy(99))}},
		{"non-permutation order", []doacross.Option{doacross.WithOrder([]int{0, 0, 1})}},
		{"NaN barrier cost", []doacross.Option{doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: math.NaN(), FlagCheckNs: 5, ClaimNs: 25})}},
		{"infinite flag-check cost", []doacross.Option{doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: 1000, FlagCheckNs: math.Inf(1), ClaimNs: 25})}},
		{"NaN claim cost", []doacross.Option{doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: 1000, FlagCheckNs: 5, ClaimNs: math.NaN()})}},
		{"zero claim cost", []doacross.Option{doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: 1000, FlagCheckNs: 5, IterNs: 80})}},
		{"infinite iteration cost", []doacross.Option{doacross.WithAutoCosts(doacross.AutoCosts{BarrierNs: 1000, FlagCheckNs: 5, ClaimNs: 25, IterNs: math.Inf(1)})}},
	}
	for _, tc := range cases {
		if _, err := doacross.New(8, tc.opts...); err == nil {
			t.Errorf("%s: New accepted the invalid option", tc.name)
		}
	}
	if _, err := doacross.New(-1); err == nil {
		t.Error("New accepted a negative data length")
	}
}

// TestLoopBuilderValidation checks the builder's validation: both body
// variants set, neither set, and an out-of-range write are all rejected.
func TestLoopBuilderValidation(t *testing.T) {
	writes := func(i int) []int { return []int{i} }
	body := func(i int, v *doacross.Values) {}
	bodyErr := func(i int, v *doacross.Values) error { return nil }

	if _, err := doacross.NewLoop(4, 4).Writes(writes).Body(body).BodyErr(bodyErr).Build(); err == nil {
		t.Error("builder accepted both Body and BodyErr")
	}
	if _, err := doacross.NewLoop(4, 4).Writes(writes).Build(); err == nil {
		t.Error("builder accepted a loop with no body")
	}
	if _, err := doacross.NewLoop(4, 2).Writes(writes).Body(body).Build(); err == nil {
		t.Error("builder accepted an out-of-range write")
	}
	if _, err := doacross.NewLoop(4, 4).Writes(func(i int) []int { return []int{0} }).Body(body).Build(); err == nil {
		t.Error("builder accepted an output dependency")
	}
	if _, err := doacross.NewLoop(4, 4).Writes(writes).Body(body).Build(); err != nil {
		t.Errorf("builder rejected a valid loop: %v", err)
	}
}

// TestSequentialBodyErr checks that RunSequential stops at the first failing
// iteration.
func TestSequentialBodyErr(t *testing.T) {
	const n = 16
	sentinel := fmt.Errorf("stop at 5")
	var ran int
	loop, err := doacross.NewLoop(n, n).
		Writes(func(i int) []int { return []int{i} }).
		BodyErr(func(i int, v *doacross.Values) error {
			if i == 5 {
				return sentinel
			}
			ran++ //doavet:ignore bodycapture -- only ever run sequentially
			v.Store(i, 1)
			return nil
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := doacross.RunSequential(loop, make([]float64, n)); !errors.Is(err, sentinel) {
		t.Fatalf("RunSequential returned %v, want the body error", err)
	}
	if ran != 5 {
		t.Fatalf("RunSequential ran %d iterations after the failure, want 5 total", ran)
	}
}
