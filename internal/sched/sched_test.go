package sched

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func collect(s *Schedule) []int {
	var all []int
	for _, l := range s.PerWorker {
		all = append(all, l...)
	}
	sort.Ints(all)
	return all
}

func TestBlockRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 3}, {16, 16}, {7, 2}, {1, 4}, {100, 7}} {
		covered := make([]bool, tc.n)
		for w := 0; w < tc.p; w++ {
			lo, hi := BlockRange(tc.n, tc.p, w)
			if lo > hi {
				t.Fatalf("n=%d p=%d w=%d: lo %d > hi %d", tc.n, tc.p, w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("n=%d p=%d: position %d covered twice", tc.n, tc.p, i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("n=%d p=%d: position %d not covered", tc.n, tc.p, i)
			}
		}
	}
}

func TestBlockRangeBalance(t *testing.T) {
	// Property: block ranges differ in size by at most one.
	f := func(n16, p8 uint8) bool {
		n, p := int(n16), int(p8)%8+1
		if n == 0 {
			return true
		}
		minSz, maxSz := n, 0
		for w := 0; w < p; w++ {
			lo, hi := BlockRange(n, p, w)
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewBlockCoversAllPositions(t *testing.T) {
	s := NewBlock(23, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	all := collect(s)
	if len(all) != 23 {
		t.Fatalf("covered %d positions, want 23", len(all))
	}
	for i, pos := range all {
		if pos != i {
			t.Fatalf("missing position %d", i)
		}
	}
	if s.PolicyUsed != Block {
		t.Error("PolicyUsed should be Block")
	}
}

func TestNewCyclicCoversAllPositions(t *testing.T) {
	s := NewCyclic(23, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := collect(s); len(got) != 23 {
		t.Fatalf("covered %d positions, want 23", len(got))
	}
	// Worker 0 under cyclic gets 0, 4, 8, ...
	if s.PerWorker[0][1] != 4 {
		t.Errorf("cyclic worker 0 second position = %d, want 4", s.PerWorker[0][1])
	}
}

func TestNewBlockClampsWorkers(t *testing.T) {
	s := NewBlock(3, 10)
	if s.Workers() != 3 {
		t.Fatalf("workers = %d, want clamp to 3", s.Workers())
	}
	s = NewBlock(5, 0)
	if s.Workers() != 1 {
		t.Fatalf("workers = %d, want clamp to 1", s.Workers())
	}
	s = NewBlock(0, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleValidateDetectsErrors(t *testing.T) {
	bad := NewExplicit([][]int{{0, 1}, {1, 2}}, 4)
	if err := bad.Validate(); err == nil {
		t.Error("duplicate position not detected")
	}
	missing := NewExplicit([][]int{{0, 1}}, 3)
	if err := missing.Validate(); err == nil {
		t.Error("missing position not detected")
	}
	oob := NewExplicit([][]int{{0, 5}}, 3)
	if err := oob.Validate(); err == nil {
		t.Error("out-of-range position not detected")
	}
	ok := NewExplicit([][]int{{2, 0}, {1}}, 3)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid explicit schedule rejected: %v", err)
	}
}

func TestPoolRunScheduleExecutesEverything(t *testing.T) {
	s := NewCyclic(100, 5)
	pool := NewPool(5)
	var mu sync.Mutex
	seen := make(map[int]int)
	pool.RunSchedule(s, func(worker, pos int) {
		mu.Lock()
		seen[pos]++
		mu.Unlock()
	})
	if len(seen) != 100 {
		t.Fatalf("executed %d distinct positions, want 100", len(seen))
	}
	for pos, n := range seen {
		if n != 1 {
			t.Fatalf("position %d executed %d times", pos, n)
		}
	}
}

func TestPoolRunScheduleOrderWithinWorker(t *testing.T) {
	s := NewBlock(64, 4)
	pool := NewPool(4)
	var mu sync.Mutex
	order := make(map[int][]int)
	pool.RunSchedule(s, func(worker, pos int) {
		mu.Lock()
		order[worker] = append(order[worker], pos)
		mu.Unlock()
	})
	for w, got := range order {
		want := s.PerWorker[w]
		if len(got) != len(want) {
			t.Fatalf("worker %d executed %d positions, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("worker %d executed out of order: %v vs %v", w, got, want)
			}
		}
	}
}

func TestPoolRunDynamicCoversAll(t *testing.T) {
	pool := NewPool(4)
	var count atomic.Int64
	seen := make([]atomic.Int32, 1000)
	pool.RunDynamic(1000, 7, func(worker, pos int) {
		seen[pos].Add(1)
		count.Add(1)
	})
	if count.Load() != 1000 {
		t.Fatalf("executed %d positions, want 1000", count.Load())
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("position %d executed %d times", i, seen[i].Load())
		}
	}
}

func TestPoolRunDynamicDefaultChunk(t *testing.T) {
	pool := NewPool(2)
	var count atomic.Int64
	pool.RunDynamic(50, 0, func(worker, pos int) { count.Add(1) })
	if count.Load() != 50 {
		t.Fatalf("executed %d, want 50", count.Load())
	}
}

func TestPoolParallelFor(t *testing.T) {
	pool := NewPool(3)
	out := make([]atomic.Int32, 100)
	pool.ParallelFor(100, func(i int) { out[i].Add(1) })
	for i := range out {
		if out[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, out[i].Load())
		}
	}
	// Empty and negative sizes are no-ops.
	pool.ParallelFor(0, func(i int) { t.Error("body called for n=0") })
	pool.ParallelFor(-5, func(i int) { t.Error("body called for n<0") })
}

func TestPoolParallelForMoreWorkersThanWork(t *testing.T) {
	pool := NewPool(16)
	out := make([]atomic.Int32, 3)
	pool.ParallelFor(3, func(i int) { out[i].Add(1) })
	for i := range out {
		if out[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, out[i].Load())
		}
	}
}

func TestBuildPolicies(t *testing.T) {
	for _, p := range []Policy{Block, Cyclic, Dynamic} {
		s := Build(p, 37, 5)
		if err := s.Validate(); err != nil {
			t.Errorf("policy %v: %v", p, err)
		}
		if p == Dynamic && s.PolicyUsed != Dynamic {
			t.Error("Dynamic build should record Dynamic policy")
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Block.String() != "block" || Cyclic.String() != "cyclic" || Dynamic.String() != "dynamic" {
		t.Error("Policy.String mismatch")
	}
	if Policy(99).String() != "unknown" {
		t.Error("invalid policy should stringify to unknown")
	}
}

func TestNewPoolClamp(t *testing.T) {
	if NewPool(0).Workers() != 1 || NewPool(-3).Workers() != 1 {
		t.Error("pool size should clamp to 1")
	}
	if NewPool(8).Workers() != 8 {
		t.Error("pool size 8 not preserved")
	}
}

func TestPoolZeroAndNegativeWork(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	pool.RunDynamic(0, 8, func(worker, pos int) { t.Error("body called for n=0") })
	pool.RunDynamic(-3, 8, func(worker, pos int) { t.Error("body called for n<0") })
	pool.ParallelFor(0, func(i int) { t.Error("body called for n=0") })
	pool.Submit(0, func(w int) { t.Error("fn called for k=0") })
	pool.Submit(-1, func(w int) { t.Error("fn called for k<0") })
	empty := NewExplicit([][]int{}, 0)
	pool.RunSchedule(empty, func(worker, pos int) { t.Error("body called for empty schedule") })
}

func TestPoolMoreWorkersThanWork(t *testing.T) {
	pool := NewPool(16)
	defer pool.Close()
	var count atomic.Int64
	pool.RunDynamic(3, 1, func(worker, pos int) {
		if worker < 0 || worker >= 3 {
			t.Errorf("worker %d outside clamped range [0,3)", worker)
		}
		count.Add(1)
	})
	if count.Load() != 3 {
		t.Fatalf("executed %d positions, want 3", count.Load())
	}
}

func TestPoolRunScheduleEmptyWorkerLists(t *testing.T) {
	// Workers with nothing assigned must neither execute anything nor block
	// completion of the others.
	pool := NewPool(4)
	defer pool.Close()
	s := NewExplicit([][]int{{0, 2}, nil, {1}, {}}, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	pool.RunSchedule(s, func(worker, pos int) {
		if worker == 1 || worker == 3 {
			t.Errorf("worker %d has an empty list but executed position %d", worker, pos)
		}
		count.Add(1)
	})
	if count.Load() != 3 {
		t.Fatalf("executed %d positions, want 3", count.Load())
	}
}

func TestPoolRunScheduleWiderThanPool(t *testing.T) {
	// A schedule built for more workers than the pool has still executes
	// every position with the schedule's own worker indices.
	pool := NewPool(2)
	defer pool.Close()
	s := NewCyclic(40, 8)
	seen := make([]atomic.Int32, 40)
	maxWorker := atomic.Int32{}
	pool.RunSchedule(s, func(worker, pos int) {
		seen[pos].Add(1)
		for {
			cur := maxWorker.Load()
			if int32(worker) <= cur || maxWorker.CompareAndSwap(cur, int32(worker)) {
				break
			}
		}
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("position %d executed %d times", i, seen[i].Load())
		}
	}
	if maxWorker.Load() != 7 {
		t.Fatalf("max worker index %d, want 7", maxWorker.Load())
	}
}

func TestPoolReuseAcrossPhases(t *testing.T) {
	// One pool serves many successive phases without spawning new goroutines:
	// the goroutine count after hundreds of phase submissions matches the
	// count right after pool construction.
	pool := NewPool(4)
	defer pool.Close()
	pool.ParallelFor(8, func(i int) {}) // warm up
	before := runtime.NumGoroutine()
	var count atomic.Int64
	for phase := 0; phase < 200; phase++ {
		switch phase % 3 {
		case 0:
			pool.RunSchedule(NewBlock(64, 4), func(worker, pos int) { count.Add(1) })
		case 1:
			pool.RunDynamic(64, 7, func(worker, pos int) { count.Add(1) })
		default:
			pool.ParallelFor(64, func(i int) { count.Add(1) })
		}
	}
	after := runtime.NumGoroutine()
	if count.Load() != 200*64 {
		t.Fatalf("executed %d positions, want %d", count.Load(), 200*64)
	}
	// Allow slack for unrelated runtime goroutines, but 200 phases of a
	// spawn-per-call pool would leave far more churn than this.
	if after > before+2 {
		t.Fatalf("goroutine count grew from %d to %d across 200 phases; workers are not being reused", before, after)
	}
}

func TestPoolSubmitRunsParticipantsConcurrently(t *testing.T) {
	// Bodies of one job may synchronize with each other (the doacross
	// executor relies on this): a job whose participants all wait for each
	// other must complete.
	pool := NewPool(4)
	defer pool.Close()
	var arrived atomic.Int32
	pool.Submit(4, func(w int) {
		arrived.Add(1)
		for arrived.Load() < 4 {
			runtime.Gosched()
		}
	})
	if arrived.Load() != 4 {
		t.Fatalf("%d participants, want 4", arrived.Load())
	}
}

func TestPoolConcurrentSubmissions(t *testing.T) {
	// Submissions from different goroutines are serialized but must all
	// complete correctly.
	pool := NewPool(4)
	defer pool.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				pool.ParallelFor(50, func(i int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if total.Load() != 8*20*50 {
		t.Fatalf("executed %d positions, want %d", total.Load(), 8*20*50)
	}
}

func TestPoolCloseIdempotentAndUsableAfter(t *testing.T) {
	pool := NewPool(4)
	pool.Close()
	pool.Close() // second Close must be a no-op, not a double-close panic
	// Calls after Close fall back to spawn-per-call and stay correct.
	var count atomic.Int64
	pool.ParallelFor(100, func(i int) { count.Add(1) })
	if count.Load() != 100 {
		t.Fatalf("executed %d positions after Close, want 100", count.Load())
	}
	pool.Close() // Close after fallback use is still a no-op
}

func TestPoolRapidResubmitStaleTokens(t *testing.T) {
	// Regression: a park attempt aborted through the epoch recheck can leave
	// a stale token in the worker's wake channel; a later submission must
	// not block on the full channel (the wake send is non-blocking). Rapid
	// back-to-back jobs of varying width maximize the park/submit race; a
	// blocking send here deadlocks the test.
	pool := NewPool(4)
	defer pool.Close()
	var total atomic.Int64
	var want int64
	for i := 0; i < 5000; i++ {
		k := 2 + i%3
		want += int64(k)
		pool.Submit(k, func(w int) { total.Add(1) })
	}
	if total.Load() != want {
		t.Fatalf("executed %d shards, want %d", total.Load(), want)
	}
}
