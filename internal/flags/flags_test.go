package flags

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestReadyFlagsInitialState(t *testing.T) {
	r := NewReadyFlags(8)
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	for i := 0; i < 8; i++ {
		if r.IsDone(i) {
			t.Errorf("element %d unexpectedly done at construction", i)
		}
	}
}

func TestReadyFlagsSetClear(t *testing.T) {
	r := NewReadyFlags(4)
	r.Set(2)
	if !r.IsDone(2) {
		t.Fatal("Set(2) not observed by IsDone")
	}
	if r.IsDone(1) {
		t.Fatal("Set(2) leaked into element 1")
	}
	r.Clear(2)
	if r.IsDone(2) {
		t.Fatal("Clear(2) not observed")
	}
}

func TestReadyFlagsClearAll(t *testing.T) {
	r := NewReadyFlags(16)
	for i := 0; i < 16; i++ {
		r.Set(i)
	}
	r.ClearAll()
	for i := 0; i < 16; i++ {
		if r.IsDone(i) {
			t.Fatalf("element %d still done after ClearAll", i)
		}
	}
}

func TestReadyFlagsWaitAlreadyDone(t *testing.T) {
	r := NewReadyFlags(4)
	r.Set(3)
	for _, s := range []WaitStrategy{WaitSpin, WaitSpinYield, WaitNotify} {
		if polls := r.Wait(3, s); polls != 0 {
			t.Errorf("strategy %v: Wait on done flag polled %d times, want 0", s, polls)
		}
	}
}

func TestReadyFlagsWaitBlocksUntilSet(t *testing.T) {
	for _, s := range []WaitStrategy{WaitSpinYield, WaitNotify} {
		r := NewReadyFlags(4)
		if s == WaitNotify {
			r.EnableNotify()
		}
		var wg sync.WaitGroup
		observed := false
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Wait(1, s)
			observed = r.IsDone(1)
		}()
		r.Set(1)
		wg.Wait()
		if !observed {
			t.Errorf("strategy %v: waiter returned before flag was done", s)
		}
	}
}

func TestReadyFlagsNotifyFallback(t *testing.T) {
	// WaitNotify without EnableNotify must still terminate (falls back to
	// yielding spin).
	r := NewReadyFlags(2)
	done := make(chan struct{})
	go func() {
		r.Wait(0, WaitNotify)
		close(done)
	}()
	r.Set(0)
	<-done
}

func TestReadyFlagsManyWaitersOneWriter(t *testing.T) {
	r := NewReadyFlags(1)
	r.EnableNotify()
	const waiters = 32
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		strategy := WaitSpinYield
		if w%2 == 0 {
			strategy = WaitNotify
		}
		go func(s WaitStrategy) {
			defer wg.Done()
			r.Wait(0, s)
		}(strategy)
	}
	r.Set(0)
	wg.Wait() // must not hang
}

func TestWaitStrategyString(t *testing.T) {
	cases := map[WaitStrategy]string{
		WaitSpin:        "spin",
		WaitSpinYield:   "spin+yield",
		WaitNotify:      "notify",
		WaitStrategy(9): "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestIterTableInitialMaxInt(t *testing.T) {
	tab := NewIterTable(5)
	if tab.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tab.Len())
	}
	for i := 0; i < 5; i++ {
		if w := tab.Writer(i); w != MaxInt {
			t.Errorf("Writer(%d) = %d, want MaxInt", i, w)
		}
	}
}

func TestIterTableRecordAndReset(t *testing.T) {
	tab := NewIterTable(10)
	tab.Record(4, 7)
	if w := tab.Writer(4); w != 7 {
		t.Fatalf("Writer(4) = %d, want 7", w)
	}
	tab.Reset(4)
	if w := tab.Writer(4); w != MaxInt {
		t.Fatalf("after Reset Writer(4) = %d, want MaxInt", w)
	}
	tab.Record(1, 3)
	tab.Record(2, 5)
	tab.ResetAll()
	for i := 0; i < 10; i++ {
		if tab.Writer(i) != MaxInt {
			t.Fatalf("ResetAll left element %d recorded", i)
		}
	}
}

// classify is the executor's dependence check on a table lookup: the
// paper's check = iter(offset) - i sign test applied to Writer.
func classify(tab *IterTable, e, i int) (string, int64) {
	w := tab.Writer(e)
	switch {
	case w < int64(i):
		return "true", w
	case w == int64(i):
		return "self", w
	}
	return "anti/none", w
}

func TestIterTableClassify(t *testing.T) {
	tab := NewIterTable(10)
	tab.Record(0, 3)

	if d, w := classify(tab, 0, 5); d != "true" || w != 3 {
		t.Errorf("classify(written by 3, read by 5) = %v,%d; want true,3", d, w)
	}
	if d, _ := classify(tab, 0, 3); d != "self" {
		t.Errorf("classify(written by 3, read by 3) = %v; want self", d)
	}
	if d, _ := classify(tab, 0, 2); d != "anti/none" {
		t.Errorf("classify(written by 3, read by 2) = %v; want anti/none", d)
	}
	if d, _ := classify(tab, 7, 2); d != "anti/none" {
		t.Errorf("classify(never written) = %v; want anti/none", d)
	}
}

func TestClassifyPropertyMatchesDirectComparison(t *testing.T) {
	// Property: for any writer w and reader i, the check on Writer agrees
	// with the paper's check = iter(offset) - i sign test on the recorded
	// iteration.
	f := func(writer uint16, reader uint16) bool {
		tab := NewIterTable(1)
		tab.Record(0, int(writer))
		d, _ := classify(tab, 0, int(reader))
		switch {
		case int(writer) < int(reader):
			return d == "true"
		case int(writer) == int(reader):
			return d == "self"
		default:
			return d == "anti/none"
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The epoch-protocol tests below run on the same ReadyFlags and IterTable
// as the paper-protocol tests above: the protocols differ only in how the
// tables are reset between loops (Advance instead of per-element Clear and
// Reset).

func TestEpochFlagsBasic(t *testing.T) {
	e := NewReadyFlags(4)
	e.Advance()
	if e.IsDone(0) {
		t.Fatal("element done before Set")
	}
	e.Set(0)
	if !e.IsDone(0) {
		t.Fatal("element not done after Set")
	}
	for _, s := range []WaitStrategy{WaitSpin, WaitSpinYield, WaitNotify} {
		if e.Wait(0, s) != 0 {
			t.Fatalf("Wait(%v) on done element polled", s)
		}
	}
}

func TestEpochFlagsAdvanceInvalidates(t *testing.T) {
	e := NewReadyFlags(4)
	for i := 0; i < 4; i++ {
		e.Set(i)
	}
	old := e.epoch.Load()
	e.Advance()
	if e.epoch.Load() != old+1 {
		t.Fatalf("epoch after Advance = %d, want %d", e.epoch.Load(), old+1)
	}
	for i := 0; i < 4; i++ {
		if e.IsDone(i) {
			t.Fatalf("element %d still done after Advance", i)
		}
	}
	e.Set(2)
	if !e.IsDone(2) {
		t.Fatal("Set after Advance not observed")
	}
	e.Clear(2)
	if e.IsDone(2) {
		t.Fatal("Clear after Advance not observed")
	}
}

func TestEpochFlagsWaitBlocks(t *testing.T) {
	for _, s := range []WaitStrategy{WaitSpin, WaitSpinYield, WaitNotify} {
		e := NewReadyFlags(2)
		if s == WaitNotify {
			e.EnableNotify()
		}
		// Element 1 was done in the previous loop; after Advance the wait
		// must block until this loop's Set.
		e.Set(1)
		e.Advance()
		var observed atomic.Bool
		done := make(chan struct{})
		go func() {
			e.Wait(1, s)
			observed.Store(e.IsDone(1))
			close(done)
		}()
		e.Set(1)
		<-done
		if !observed.Load() {
			t.Errorf("strategy %v: waiter returned before the element was set", s)
		}
	}
}

func TestEpochFlagsWaitNotifyWithoutEnable(t *testing.T) {
	// WaitNotify without EnableNotify must still terminate (falls back to a
	// yielding spin).
	e := NewReadyFlags(1)
	e.Advance()
	done := make(chan struct{})
	go func() {
		e.Wait(0, WaitNotify)
		close(done)
	}()
	e.Set(0)
	<-done
}

func TestEpochIterTableBasic(t *testing.T) {
	tab := NewIterTable(8)
	tab.Advance()
	if tab.Writer(3) != MaxInt {
		t.Fatal("unrecorded element should report MaxInt")
	}
	tab.Record(3, 0) // iteration 0 must be representable
	if w := tab.Writer(3); w != 0 {
		t.Fatalf("Writer(3) = %d, want 0", w)
	}
	tab.Record(4, epochStride-1) // and so must the largest one
	if w := tab.Writer(4); w != epochStride-1 {
		t.Fatalf("Writer(4) = %d, want %d", w, int64(epochStride-1))
	}
	tab.Record(5, 41)
	if d, w := classify(tab, 5, 100); d != "true" || w != 41 {
		t.Fatalf("classify = %v,%d; want true,41", d, w)
	}
	if d, _ := classify(tab, 5, 41); d != "self" {
		t.Fatal("classify same iteration should be self")
	}
	if d, _ := classify(tab, 5, 7); d != "anti/none" {
		t.Fatal("classify earlier reader should be anti/none")
	}
}

func TestEpochIterTableAdvanceInvalidates(t *testing.T) {
	tab := NewIterTable(4)
	tab.Record(1, 10)
	tab.Record(2, epochStride-1)
	tab.Advance()
	if tab.Writer(1) != MaxInt || tab.Writer(2) != MaxInt {
		t.Fatal("Advance did not invalidate recorded writers")
	}
	tab.Record(1, 20)
	if tab.Writer(1) != 20 {
		t.Fatal("Record after Advance not observed")
	}
	tab.Reset(1)
	if tab.Writer(1) != MaxInt {
		t.Fatal("Reset after Advance not observed")
	}
}

// TestPaperProtocolHasNoIterationLimit pins that the epoch protocol's limit
// does not reach the paper's: a table that is only ever reset per element
// records iterations far beyond 2^32.
func TestPaperProtocolHasNoIterationLimit(t *testing.T) {
	tab := NewIterTable(2)
	for _, i := range []int{epochStride, 1 << 40, math.MaxInt64 - 2} {
		tab.Record(0, i)
		if w := tab.Writer(0); w != int64(i) {
			t.Fatalf("Writer after Record(0, %d) = %d", i, w)
		}
		tab.Reset(0)
		if w := tab.Writer(0); w != MaxInt {
			t.Fatalf("Writer after Reset = %d, want MaxInt", w)
		}
	}
}

// TestEpochWrap pins the edge of the epoch representation: the ready
// array's 32-bit epoch wraps after 2^32-1 Advances and the iter table's base
// overflows after about 2^31, and in both cases every entry written before
// the wrap must read as never written and not done afterwards, however old.
func TestEpochWrap(t *testing.T) {
	r := NewReadyFlags(3)
	r.Set(0) // epoch 1: would read as done again once the epoch is back at 1
	r.epoch.Store(math.MaxUint32)
	r.Set(1)
	r.Advance()
	if got := r.epoch.Load(); got != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", got)
	}
	for e := 0; e < 3; e++ {
		if r.IsDone(e) {
			t.Errorf("ready element %d done after the wrap", e)
		}
	}
	r.Set(2)
	if !r.IsDone(2) {
		t.Error("Set after the wrap not observed")
	}

	tab := NewIterTable(3)
	tab.Record(0, 5) // base 1
	tab.base.Store(MaxInt - 2*epochStride + 1)
	tab.Record(1, epochStride-1)
	tab.Advance()
	if got := tab.base.Load(); got != 1 {
		t.Fatalf("base after the wrap = %d, want 1", got)
	}
	for e := 0; e < 3; e++ {
		if w := tab.Writer(e); w != MaxInt {
			t.Errorf("iter element %d has writer %d after the wrap", e, w)
		}
	}
	// The last Advance before the wrap still fits the epoch's largest
	// iteration without overflow.
	tab.base.Store(MaxInt - 2*epochStride)
	tab.Advance()
	tab.Record(2, epochStride-1)
	if w := tab.Writer(2); w != epochStride-1 {
		t.Errorf("Writer at the last base = %d, want %d", w, int64(epochStride-1))
	}
}

func TestEpochAndPlainIterTablesAgree(t *testing.T) {
	// Property: over a sequence of loops, a table reset per element (the
	// paper's protocol) and a table advanced between loops (the epoch
	// protocol) classify every read identically.
	f := func(loops [][]uint8, reader uint8) bool {
		const n = 16
		plain := NewIterTable(n)
		epoch := NewIterTable(n)
		for _, writers := range loops {
			for e, w := range writers {
				if e >= n {
					break
				}
				plain.Record(e, int(w))
				epoch.Record(e, int(w))
			}
			for e := 0; e < n; e++ {
				d1, w1 := classify(plain, e, int(reader))
				d2, w2 := classify(epoch, e, int(reader))
				if d1 != d2 || w1 != w2 {
					return false
				}
			}
			for e := range writers {
				if e < n {
					plain.Reset(e)
				}
			}
			epoch.Advance()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzResetProtocols checks IterTable.Writer, the dependence check on it,
// and ReadyFlags.IsDone against a naive map model over decoded operation
// sequences. The sequences mix the paper's per-element resets (Reset, Clear)
// with the epoch protocol's Advance, and a jump of both epochs to just before
// their wrap, so either protocol, and any mix of the two, must read exactly
// what was recorded and set since each entry was last reset.
func FuzzResetProtocols(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 0, 6, 1, 9, 2, 1, 6, 1, 0})
	f.Add([]byte{0, 3, 7, 0, 0, 0, 2, 3, 4, 5, 6, 3, 8, 1, 3, 6, 3, 8})
	f.Add([]byte{7, 0, 0, 2, 255, 255, 255, 255, 2, 2, 5, 4, 6, 2, 1, 7, 4, 6, 2, 1})
	f.Add([]byte{0, 5, 1, 0, 0, 0, 1, 5, 3, 5, 6, 5, 2, 7, 4, 5, 6, 5, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 8
		tab, ready := NewIterTable(n), NewReadyFlags(n)
		writer, done := map[int]int64{}, map[int]bool{}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			op, e := next()%8, next()%n
			switch op {
			case 0: // Record: a 32-bit iteration, the epoch protocol's range
				i := int64(next())<<24 | int64(next())<<16 | int64(next())<<8 | int64(next())
				tab.Record(e, int(i))
				writer[e] = i
			case 1:
				tab.Reset(e)
				delete(writer, e)
			case 2:
				ready.Set(e)
				done[e] = true
			case 3:
				ready.Clear(e)
				delete(done, e)
			case 4:
				tab.Advance()
				clear(writer)
			case 5:
				ready.Advance()
				clear(done)
			case 6: // lookup by reading iteration i
				i := next()
				want, ok := writer[e]
				if !ok {
					want = MaxInt
				}
				if got := tab.Writer(e); got != want {
					t.Fatalf("Writer(%d) = %d, model %d", e, got, want)
				}
				wantDep := "anti/none"
				if want < int64(i) {
					wantDep = "true"
				} else if want == int64(i) {
					wantDep = "self"
				}
				if d, w := classify(tab, e, i); d != wantDep || w != want {
					t.Fatalf("classify(%d, %d) = %v,%d, model %v,%d", e, i, d, w, wantDep, want)
				}
				if got := ready.IsDone(e); got != done[e] {
					t.Fatalf("IsDone(%d) = %v, model %v", e, got, done[e])
				}
			case 7: // jump both epochs to just before their wrap
				if ready.epoch.Load() < math.MaxUint32-2 {
					ready.epoch.Store(math.MaxUint32 - uint32(e%3))
					clear(done)
				}
				// Only an unjumped base (far below the new one) may jump, so
				// the base still rises past every recorded slot.
				if tab.base.Load() < 1<<62 {
					tab.base.Store(MaxInt - 2*epochStride - int64(e%3)*epochStride)
					clear(writer)
				}
			}
		}
	})
}
