package sched

import "fmt"

// LevelSchedule is a level-sorted static schedule: the pre-scheduled
// counterpart of the busy-wait doacross. The iteration space is decomposed
// into wavefront levels (every iteration's true dependencies lie in strictly
// earlier levels), each level is distributed statically over the workers, and
// the executor separates consecutive levels with a barrier — so no
// per-element ready flags and no waiting inside a level are needed.
//
// It is also the static assignment of the busy-wait doacross itself: a
// one-level schedule of loop positions (NewPositionSchedule), whose worker w
// runs Items(0, w) in order and enforces dependencies through ready flags
// instead of barriers.
//
// The assignments are stored flat (level-major, worker-major) so a schedule
// for a large loop is two slices, not levels*workers allocations, and the
// per-worker item lists of one level are contiguous.
type LevelSchedule struct {
	items []int32 // iteration indices, grouped by (level, worker)
	off   []int32 // len levels*workers+1; items of (l,w) are items[off[l*W+w]:off[l*W+w+1]]

	levels  int
	workers int
	n       int
	// PolicyUsed records how each level was distributed. Dynamic has no
	// pre-scheduled analogue, so it degrades to Cyclic.
	PolicyUsed Policy
}

// NewLevelSchedule builds a level schedule over p workers from a wavefront
// decomposition in CSR form: level l's iterations are members[off[l]:off[l+1]]
// (ascending), exactly the layout of depgraph.LevelSet. Within each level the
// members are distributed by policy: Block gives each worker a contiguous
// chunk of the level, Cyclic (and Dynamic, which cannot be materialized
// statically) deals them round robin.
func NewLevelSchedule(members, off []int32, policy Policy, p int) *LevelSchedule {
	if p < 1 {
		p = 1
	}
	levels := len(off) - 1
	if levels < 0 {
		levels = 0
	}
	used := policy
	if used == Dynamic {
		used = Cyclic
	}
	s := &LevelSchedule{
		items:      make([]int32, len(members)),
		off:        make([]int32, levels*p+1),
		levels:     levels,
		workers:    p,
		n:          len(members),
		PolicyUsed: used,
	}
	s.fillLevels(members, off, 0)
	return s
}

// NewPositionSchedule builds the static assignment of n loop positions over p
// workers: one level holding positions 0..n-1, distributed by policy exactly
// as NewLevelSchedule distributes a level (Dynamic, which cannot be
// materialized statically, degrades to Cyclic). Worker w executes Items(0, w)
// in order; workers beyond n get empty lists.
func NewPositionSchedule(n int, policy Policy, p int) *LevelSchedule {
	positions := make([]int32, n)
	for i := range positions {
		positions[i] = int32(i)
	}
	return NewLevelSchedule(positions, []int32{0, int32(n)}, policy, p)
}

// fillLevels distributes levels [from, s.levels) of the decomposition over
// the workers, writing items and offsets from the position recorded at
// s.off[from*workers] onward. It is the shared core of NewLevelSchedule
// (from = 0) and PatchSuffix.
func (s *LevelSchedule) fillLevels(members, off []int32, from int) {
	p := s.workers
	pos := int(s.off[from*p])
	for l := from; l < s.levels; l++ {
		lvl := members[off[l]:off[l+1]]
		base := l * p
		switch s.PolicyUsed {
		case Cyclic:
			for w := 0; w < p; w++ {
				s.off[base+w] = int32(pos)
				for k := w; k < len(lvl); k += p {
					s.items[pos] = lvl[k]
					pos++
				}
			}
		default: // Block
			for w := 0; w < p; w++ {
				s.off[base+w] = int32(pos)
				lo, hi := BlockRange(len(lvl), p, w)
				pos += copy(s.items[pos:], lvl[lo:hi])
			}
		}
	}
	s.off[s.levels*p] = int32(pos)
}

// PatchSuffix rebuilds the schedule's assignments for levels >= from against
// an updated decomposition (members/off, the depgraph.LevelSet layout),
// leaving the assignments of levels below from untouched. The decomposition
// must agree with the one the schedule was built from on every level below
// from — the contract an incremental plan repair satisfies, since it only
// perturbs levels at or above the earliest dirtied one. The level count (and
// with it the total member count) may differ from the original build.
//
// Cost is O(members at levels >= from), independent of the untouched prefix.
func (s *LevelSchedule) PatchSuffix(members, off []int32, from int) {
	levels := len(off) - 1
	if levels < 0 {
		levels = 0
	}
	if from < 0 {
		from = 0
	}
	if from > levels {
		from = levels
	}
	if from > s.levels {
		from = s.levels
	}
	p := s.workers
	s.levels = levels
	s.n = len(members)
	prefixItems := int(s.off[from*p])
	s.items = growPreserve(s.items, len(members), prefixItems)
	s.off = growPreserve(s.off, levels*p+1, from*p+1)
	s.fillLevels(members, off, from)
}

// growPreserve resizes buf to length n, keeping its first keep elements —
// unlike a plain make-and-forget grow, the preserved prefix is what makes
// suffix patching cheap.
func growPreserve(buf []int32, n, keep int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	nb := make([]int32, n)
	copy(nb, buf[:keep])
	return nb
}

// Clone returns an independent deep copy of the schedule: the copy shares no
// storage with the original, so a plan snapshot can hand it out while the
// runtime keeps patching the live schedule.
func (s *LevelSchedule) Clone() *LevelSchedule {
	return &LevelSchedule{
		items:      append([]int32(nil), s.items...),
		off:        append([]int32(nil), s.off...),
		levels:     s.levels,
		workers:    s.workers,
		n:          s.n,
		PolicyUsed: s.PolicyUsed,
	}
}

// Levels returns the number of wavefront levels.
func (s *LevelSchedule) Levels() int { return s.levels }

// Workers returns the number of workers the schedule distributes over.
func (s *LevelSchedule) Workers() int { return s.workers }

// N returns the total number of scheduled iterations.
func (s *LevelSchedule) N() int { return s.n }

// Items returns the iterations worker w executes in level l, in order.
func (s *LevelSchedule) Items(l, w int) []int32 {
	i := l*s.workers + w
	return s.items[s.off[i]:s.off[i+1]]
}

// LevelWidth returns the number of iterations in level l.
func (s *LevelSchedule) LevelWidth(l int) int {
	return int(s.off[(l+1)*s.workers] - s.off[l*s.workers])
}

// Validate checks that the schedule covers every iteration in [0, N) exactly
// once and that the flat offsets are monotone.
func (s *LevelSchedule) Validate() error {
	seen := make([]bool, s.n)
	count := 0
	for i := 1; i < len(s.off); i++ {
		if s.off[i] < s.off[i-1] {
			return fmt.Errorf("level schedule: offsets not monotone at %d", i)
		}
	}
	for l := 0; l < s.levels; l++ {
		for w := 0; w < s.workers; w++ {
			for _, it := range s.Items(l, w) {
				if it < 0 || int(it) >= s.n {
					return fmt.Errorf("level %d worker %d: iteration %d out of range [0,%d)", l, w, it, s.n)
				}
				if seen[it] {
					return fmt.Errorf("level %d worker %d: iteration %d assigned more than once", l, w, it)
				}
				seen[it] = true
				count++
			}
		}
	}
	if count != s.n {
		return fmt.Errorf("level schedule covers %d of %d iterations", count, s.n)
	}
	return nil
}
