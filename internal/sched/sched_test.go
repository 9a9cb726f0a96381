package sched

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// collect returns every item of the schedule, sorted.
func collect(s *LevelSchedule) []int {
	var all []int
	for l := 0; l < s.Levels(); l++ {
		for w := 0; w < s.Workers(); w++ {
			for _, it := range s.Items(l, w) {
				all = append(all, int(it))
			}
		}
	}
	sort.Ints(all)
	return all
}

// runSchedule runs a position schedule on the pool the way a doacross run
// does: one Submit whose worker w executes Items(0, w) in order.
func runSchedule(pool *Pool, s *LevelSchedule, body func(worker, pos int)) {
	pool.Submit(s.Workers(), func(w int) {
		for _, pos := range s.Items(0, w) {
			body(w, int(pos))
		}
	})
}

// runDynamic runs n positions on the pool the way a Dynamic-policy doacross
// run does: every worker claims chunks from one counter through DynamicLoop.
func runDynamic(pool *Pool, n, chunk int, body func(worker, pos int)) {
	var next atomic.Int64
	pool.Submit(min(pool.Workers(), n), func(w int) { DynamicLoop(&next, n, chunk, w, body, nil) })
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
	s := NewPositionSchedule(23, Block, 4)
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
	if s.PolicyUsed != Block || s.Levels() != 1 {
		t.Errorf("policy %v, %d levels; want block, one level", s.PolicyUsed, s.Levels())
	}
	// Block: worker w runs the contiguous range BlockRange(23, 4, w).
	for w := 0; w < 4; w++ {
		lo, hi := BlockRange(23, 4, w)
		items := s.Items(0, w)
		if len(items) != hi-lo || len(items) > 0 && int(items[0]) != lo {
			t.Fatalf("worker %d items %v, want [%d,%d)", w, items, lo, hi)
		}
	}
}

func TestNewCyclicCoversAllPositions(t *testing.T) {
	s := NewPositionSchedule(23, Cyclic, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := collect(s); len(got) != 23 {
		t.Fatalf("covered %d positions, want 23", len(got))
	}
	// Worker 0 under cyclic gets 0, 4, 8, ...
	if got := s.Items(0, 0)[1]; got != 4 {
		t.Errorf("cyclic worker 0 second position = %d, want 4", got)
	}
}

func TestNewBlockClampsWorkers(t *testing.T) {
	// More workers than positions: one position each for the first three,
	// empty lists for the rest.
	s := NewPositionSchedule(3, Block, 10)
	for w := 0; w < s.Workers(); w++ {
		want := 0
		if w < 3 {
			want = 1
		}
		if got := len(s.Items(0, w)); got != want {
			t.Fatalf("worker %d has %d positions, want %d", w, got, want)
		}
	}
	s = NewPositionSchedule(5, Block, 0)
	if s.Workers() != 1 {
		t.Fatalf("workers = %d, want clamp to 1", s.Workers())
	}
	s = NewPositionSchedule(0, Block, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Levels() != 1 || len(s.Items(0, 3)) != 0 {
		t.Fatalf("empty position schedule: %d levels, worker 3 items %v", s.Levels(), s.Items(0, 3))
	}
}

func TestScheduleValidateDetectsErrors(t *testing.T) {
	// oneLevel builds a one-level, two-worker schedule of n iterations from
	// explicit per-worker lists, bypassing the constructors.
	oneLevel := func(n int, w0, w1 []int32) *LevelSchedule {
		items := append(append([]int32(nil), w0...), w1...)
		off := []int32{0, int32(len(w0)), int32(len(items))}
		return &LevelSchedule{items: items, off: off, levels: 1, workers: 2, n: n}
	}
	if err := oneLevel(4, []int32{0, 1}, []int32{1, 2}).Validate(); err == nil {
		t.Error("duplicate position not detected")
	}
	if err := oneLevel(3, []int32{0, 1}, nil).Validate(); err == nil {
		t.Error("missing position not detected")
	}
	if err := oneLevel(3, []int32{0, 5}, []int32{1}).Validate(); err == nil {
		t.Error("out-of-range position not detected")
	}
	nonMonotone := oneLevel(3, []int32{2, 0}, []int32{1})
	nonMonotone.off[1], nonMonotone.off[2] = 3, 2
	if err := nonMonotone.Validate(); err == nil {
		t.Error("non-monotone offsets not detected")
	}
	if err := oneLevel(3, []int32{2, 0}, []int32{1}).Validate(); err != nil {
		t.Errorf("valid explicit schedule rejected: %v", err)
	}
}

func TestPoolRunScheduleExecutesEverything(t *testing.T) {
	s := NewPositionSchedule(100, Cyclic, 5)
	pool := NewPool(5)
	var mu sync.Mutex
	seen := make(map[int]int)
	runSchedule(pool, s, func(worker, pos int) {
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
	s := NewPositionSchedule(64, Block, 4)
	pool := NewPool(4)
	var mu sync.Mutex
	order := make(map[int][]int)
	runSchedule(pool, s, func(worker, pos int) {
		mu.Lock()
		order[worker] = append(order[worker], pos)
		mu.Unlock()
	})
	for w, got := range order {
		want := s.Items(0, w)
		if len(got) != len(want) {
			t.Fatalf("worker %d executed %d positions, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != int(want[i]) {
				t.Fatalf("worker %d executed out of order: %v vs %v", w, got, want)
			}
		}
	}
}

func TestPoolRunDynamicCoversAll(t *testing.T) {
	pool := NewPool(4)
	var count atomic.Int64
	seen := make([]atomic.Int32, 1000)
	runDynamic(pool, 1000, 7, func(worker, pos int) {
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
		s := NewPositionSchedule(37, p, 5)
		if err := s.Validate(); err != nil {
			t.Errorf("policy %v: %v", p, err)
		}
		if p == Dynamic && s.PolicyUsed != Cyclic {
			t.Error("a Dynamic position schedule should degrade to Cyclic")
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
	runDynamic(pool, 0, 8, func(worker, pos int) { t.Error("body called for n=0") })
	pool.ParallelFor(0, func(i int) { t.Error("body called for n=0") })
	pool.Submit(0, func(w int) { t.Error("fn called for k=0") })
	pool.Submit(-1, func(w int) { t.Error("fn called for k<0") })
	runSchedule(pool, NewPositionSchedule(0, Block, 4), func(worker, pos int) { t.Error("body called for empty schedule") })
}

func TestPoolMoreWorkersThanWork(t *testing.T) {
	pool := NewPool(16)
	defer pool.Close()
	var count atomic.Int64
	runDynamic(pool, 3, 1, func(worker, pos int) {
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
	s := NewPositionSchedule(3, Cyclic, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	runSchedule(pool, s, func(worker, pos int) {
		if worker == 3 {
			t.Errorf("worker %d has an empty list but executed position %d", worker, pos)
		}
		count.Add(1)
	})
	if count.Load() != 3 {
		t.Fatalf("executed %d positions, want 3", count.Load())
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
			runSchedule(pool, NewPositionSchedule(64, Block, 4), func(worker, pos int) { count.Add(1) })
		case 1:
			runDynamic(pool, 64, 7, func(worker, pos int) { count.Add(1) })
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
