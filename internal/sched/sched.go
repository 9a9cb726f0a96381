// Package sched is the processor-scheduling substrate for the preprocessed
// doacross runtime: it decides which loop iterations run on which of the P
// workers and in what order, and provides the worker pool that executes them.
//
// The paper schedules iterations of the parallelized loop among the
// processors of an Encore Multimax; the exact assignment policy is left to
// the runtime. This package implements the standard choices (static block,
// static cyclic, dynamic self-scheduling), so the effect of the policy can be
// measured. Every static assignment is a LevelSchedule: the wavefront
// executor's level-sorted schedule, or the one-level schedule of loop
// positions (NewPositionSchedule) a doacross run, a Section 2.3 variant and
// the machine simulator execute.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Policy selects how iterations are assigned to workers.
type Policy int

const (
	// Block assigns contiguous ranges of (position-order) iterations to each
	// worker: worker p gets positions [p*N/P, (p+1)*N/P).
	Block Policy = iota
	// Cyclic assigns position-order iterations round robin: worker p gets
	// positions p, p+P, p+2P, ...
	Cyclic
	// Dynamic uses self-scheduling: workers repeatedly grab the next chunk of
	// positions from a shared counter.
	Dynamic
)

// String returns a short name for the policy.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case Dynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// DefaultChunk is the chunk size used by Dynamic when none is specified.
const DefaultChunk = 16

// BlockRange returns the half-open range of positions assigned to worker w by
// a block distribution of n positions over p workers. The first n%p workers
// receive one extra position.
func BlockRange(n, p, w int) (lo, hi int) {
	base := n / p
	rem := n % p
	if w < rem {
		lo = w * (base + 1)
		hi = lo + base + 1
	} else {
		lo = rem*(base+1) + (w-rem)*base
		hi = lo + base
	}
	return lo, hi
}

// Pool executes loop positions on a fixed number of workers.
//
// A Pool created by NewPool is persistent: the worker goroutines are started
// once and reused by every ParallelFor or Submit call, which becomes a job submission with a completion barrier rather than
// a goroutine-spawn loop. This mirrors the paper's setting, where one set of
// processors is reused across successive executions of the same preprocessed
// loop — an iterative driver (a Krylov solve calling the doacross triangular
// solve thousands of times) pays the worker start-up cost once instead of
// per phase per run.
//
// Jobs are published through a single atomic epoch word; a worker that just
// finished a job spin-yields on the epoch for a short budget before parking
// on its wake channel, so back-to-back submissions (the reuse pattern the
// pool exists for) are picked up with one atomic load and no scheduler
// round-trip, while an idle pool costs nothing. The submitting goroutine
// executes the last shard itself, so a pool of P workers keeps only P-1
// resident goroutines.
//
// A Pool executes one parallel region at a time: submissions from different
// goroutines are serialized, so bodies of the same job may synchronize with
// each other (as doacross executors do) but bodies of different jobs must
// not. Close retires the workers; a Pool that is garbage collected without
// Close releases its workers through a finalizer, so dropping a Pool never
// leaks goroutines.
type Pool struct {
	workers int

	mu     sync.Mutex // serializes submissions; held for the whole job
	seq    uint64     // job sequence number, guarded by mu
	sh     *poolShared
	closed bool
}

// poolShared is the state shared between the Pool handle and its resident
// workers. It is a separate allocation so the workers never reference the
// Pool itself: when the handle becomes unreachable its finalizer can run and
// release the workers.
type poolShared struct {
	// epoch packs the job sequence number and the job's worker count k as
	// seq<<epochKBits | k. Publishing a job is one atomic store; workers
	// that observe a new epoch and have index < k-1 run the job's fn.
	// Packing k into the epoch lets non-participating workers skip a job
	// without reading any other (unsynchronized) field.
	epoch atomic.Uint64
	// fn is the current job's body. It is written before the epoch store and
	// read only by participating workers, whose completion the submitter
	// awaits before the next write — so the plain field is race-free.
	fn     func(worker int)
	done   sync.WaitGroup
	parked []atomic.Bool
	wake   []chan struct{}
	quit   chan struct{}
}

const (
	// epochKBits is the number of low epoch bits holding the job's k; the
	// remaining 48 bits hold the job sequence number, which therefore wraps
	// only after 2^48 submissions — decades of back-to-back jobs, so a
	// worker can never be parked across a full wrap and mistake a new epoch
	// for its last one. Pool sizes are clamped to MaxWorkers to fit.
	epochKBits = 16
	epochKMask = 1<<epochKBits - 1
	// MaxWorkers is the largest supported pool size (the job's worker count
	// must fit in the low epoch bits).
	MaxWorkers = epochKMask
	// spinRounds bounds how many scheduler yields an idle worker spends
	// watching the epoch before parking on its wake channel.
	spinRounds = 64
)

// NewPool creates a persistent pool of p workers (at least 1). The p-1
// resident worker goroutines are started immediately and live until Close
// (or until the pool is garbage collected); the submitting goroutine serves
// as the p-th worker of every job.
func NewPool(p int) *Pool {
	if p < 1 {
		p = 1
	}
	if p > MaxWorkers {
		p = MaxWorkers
	}
	pl := &Pool{workers: p}
	if p == 1 {
		// Every job runs inline on the submitter; no resident workers.
		return pl
	}
	sh := &poolShared{
		parked: make([]atomic.Bool, p-1),
		wake:   make([]chan struct{}, p-1),
		quit:   make(chan struct{}),
	}
	for w := range sh.wake {
		sh.wake[w] = make(chan struct{}, 1)
		go sh.worker(w)
	}
	pl.sh = sh
	runtime.SetFinalizer(pl, (*Pool).Close)
	return pl
}

// worker is the resident loop of pool worker w: watch the epoch, run the
// shard when a new job includes this worker, park after the spin budget.
func (s *poolShared) worker(w int) {
	var last uint64
	idle := 0
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if e := s.epoch.Load(); e != last {
			last = e
			if w < int(e&epochKMask)-1 {
				s.fn(w)
				s.done.Done()
			}
			idle = 0
			continue
		}
		idle++
		if idle <= spinRounds {
			runtime.Gosched()
			continue
		}
		// Park. The flag-then-recheck order pairs with the submitter's
		// epoch-store-then-swap order, so either this worker sees the new
		// epoch here or the submitter sees the parked flag and sends a wake
		// token — a wakeup can never be missed. A stale token (from a park
		// aborted by the recheck) is absorbed by the next park attempt.
		s.parked[w].Store(true)
		if s.epoch.Load() != last {
			s.parked[w].Store(false)
			idle = 0
			continue
		}
		select {
		case <-s.wake[w]:
		case <-s.quit:
			return
		}
		idle = 0
	}
}

// Workers reports the pool size.
func (pl *Pool) Workers() int { return pl.workers }

// Close retires the pool's workers. It is idempotent and safe to call
// concurrently with (but not during) submissions; calls made after Close
// still execute correctly by falling back to spawn-per-call.
func (pl *Pool) Close() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return
	}
	pl.closed = true
	if pl.sh != nil {
		close(pl.sh.quit)
	}
	runtime.SetFinalizer(pl, nil)
}

// Submit runs fn(w) for every worker index w in [0, k) concurrently and
// returns when all calls have finished. k is clamped to the pool size. The
// k invocations are guaranteed to run concurrently with each other, so they
// may synchronize among themselves (the doacross executor relies on this);
// Submit is the primitive underneath ParallelFor and is exported for callers
// that run a schedule or fuse several phases into one submission.
func (pl *Pool) Submit(k int, fn func(worker int)) {
	if k <= 0 {
		return
	}
	if k > pl.workers {
		k = pl.workers
	}
	if k == 1 {
		// A one-worker region needs no concurrency; run it on the caller
		// without waking anything.
		fn(0)
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		spawnRun(k, fn)
		return
	}
	s := pl.sh
	s.fn = fn
	s.done.Add(k - 1)
	pl.seq++
	s.epoch.Store(pl.seq<<epochKBits | uint64(k))
	// Wake only the parked participants; spinning ones have already seen
	// the epoch or will within their spin budget. The send must not block:
	// a stale token can sit in the channel when a worker's park attempt
	// raced an earlier submission and the worker self-unparked through the
	// epoch recheck without draining it. A full channel already guarantees
	// the worker's next park attempt returns immediately, so dropping the
	// token is exactly right — blocking here would deadlock against a
	// worker that is already past the recheck and inside the job, waiting
	// for the submitter's own shard.
	for w := 0; w < k-1; w++ {
		if s.parked[w].Swap(false) {
			select {
			case s.wake[w] <- struct{}{}:
			default:
			}
		}
	}
	// The submitter is the job's last worker: one less goroutine to wake,
	// and it does useful work instead of parking for the whole region.
	fn(k - 1)
	s.done.Wait()
	s.fn = nil
}

// spawnRun runs fn on one freshly spawned goroutine per worker: the path of a
// closed pool.
func spawnRun(k int, fn func(worker int)) {
	var wg sync.WaitGroup
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// DynamicLoop is the self-scheduling claim loop of a Submit shard (the
// doacross executor and the Section 2.3 variants of core.Runtime): it
// repeatedly claims chunks from next until the position space [0, n) is
// exhausted. chunk must be positive. A non-nil stop is consulted before each
// chunk claim; once it reports true the worker stops claiming and returns,
// which is how an aborted (cancelled or failed) run drains the remaining
// iteration space without executing it.
func DynamicLoop(next *atomic.Int64, n, chunk, w int, body func(worker, pos int), stop func() bool) {
	for {
		if stop != nil && stop() {
			return
		}
		start := int(next.Add(int64(chunk))) - chunk
		if start >= n {
			return
		}
		end := start + chunk
		if end > n {
			end = n
		}
		for pos := start; pos < end; pos++ {
			body(w, pos)
		}
	}
}

// LevelChunk clamps a dynamic chunk size to the width of one level: claiming
// chunk positions at once from a level with fewer than 2*p chunks' worth of
// members would let a single claim serialize the level (fewer chunks than
// workers), so the chunk shrinks until every worker can expect at least two
// claims, bottoming out at 1. Wide levels keep the configured chunk and its
// lower claim traffic. Both the live dynamic wavefront executor and the
// machine model apply this clamp per level, so their claim counts agree.
func LevelChunk(chunk, width, p int) int {
	if p < 1 {
		p = 1
	}
	if limit := width / (2 * p); chunk > limit {
		chunk = limit
	}
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// DynamicClaims returns the number of chunk claims a dynamic self-scheduled
// execution of one level of the given width issues: one per successful claim
// at the level-clamped chunk size (LevelChunk), plus each worker's final
// failed claim. It is the claim-count formula shared by the live inspector's
// statistics and the simulator-side mirrors, so the Auto cost model prices
// the same traffic everywhere.
func DynamicClaims(width, chunk, p int) int {
	if p < 1 {
		p = 1
	}
	if width <= 0 {
		return p
	}
	c := LevelChunk(chunk, width, p)
	return (width+c-1)/c + p
}

// LevelImbalance replays the static distribution of one level's width
// members over p workers — Block gives each worker a contiguous chunk,
// Cyclic (and Dynamic, which the static schedule degrades to Cyclic) deals
// round robin, exactly as NewLevelSchedule builds it — and returns how much
// load the slowest worker carries beyond a balanced ceil split, with load(k)
// the cost of the level's k-th member. It is what a dynamic within-level
// assignment of the same level reclaims; the inspector sums it over levels
// with in-degree as the load.
func LevelImbalance(width int, policy Policy, p int, load func(k int) int) int {
	if p <= 1 || width <= 0 {
		return 0
	}
	cyclic := policy == Cyclic || policy == Dynamic
	total, maxLoad := 0, 0
	for w := 0; w < p; w++ {
		sum := 0
		if cyclic {
			for k := w; k < width; k += p {
				sum += load(k)
			}
		} else {
			lo, hi := BlockRange(width, p, w)
			for k := lo; k < hi; k++ {
				sum += load(k)
			}
		}
		total += sum
		if sum > maxLoad {
			maxLoad = sum
		}
	}
	if balanced := (total + p - 1) / p; maxLoad > balanced {
		return maxLoad - balanced
	}
	return 0
}

// DynamicLoopOver is the member-list form of DynamicLoop: workers claim
// chunks of positions into members and run body on the iteration index stored
// at each claimed position. It is the within-level claim loop of the dynamic
// wavefront executor — a level's member list is exactly such a slice — and
// next must start at zero for each list (the executor resets it at the level
// barrier). chunk must be positive; stop semantics match DynamicLoop.
func DynamicLoopOver(next *atomic.Int64, members []int32, chunk, w int, body func(worker, iter int), stop func() bool) {
	n := len(members)
	for {
		if stop != nil && stop() {
			return
		}
		start := int(next.Add(int64(chunk))) - chunk
		if start >= n {
			return
		}
		end := start + chunk
		if end > n {
			end = n
		}
		for _, it := range members[start:end] {
			body(w, int(it))
		}
	}
}

// ParallelFor runs body(i) for i in [0, n) across the pool's workers using a
// block distribution. It is the building block for the paper's fully
// parallelizable preprocessing and postprocessing phases (doall loops).
func (pl *Pool) ParallelFor(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	k := pl.workers
	if k > n {
		k = n
	}
	pl.Submit(k, func(w int) {
		lo, hi := BlockRange(n, k, w)
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}
