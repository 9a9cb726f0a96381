package export

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doacross/internal/core"
)

// randomLoop builds a random DAG-shaped loop: iteration i writes element i
// and reads a random subset of earlier elements, so the true-dependency graph
// is a random DAG with edges pointing forward. The closures capture their own
// copy of the read lists, so two calls with the same seed build structurally
// identical but independent loops.
func randomLoop(seed int64, n int) *core.Loop {
	rng := rand.New(rand.NewSource(seed))
	reads := make([][]int, n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Intn(4) == 0 {
				reads[i] = append(reads[i], j)
			}
		}
	}
	return &core.Loop{
		N:      n,
		Data:   n,
		Writes: func(i int) []int { return []int{i} },
		Reads:  func(i int) []int { return reads[i] },
		Body: func(i int, v *core.Values) {
			for _, j := range reads[i] {
				v.Load(j)
			}
			v.Store(i, float64(i))
		},
	}
}

// snapshot resolves the loop's plan through a throwaway wavefront runtime.
func snapshot(t *testing.T, l *core.Loop, workers int) *core.PlanSnapshot {
	t.Helper()
	rt := core.NewRuntime(l.Data, core.Options{Workers: workers, Executor: core.ExecWavefront})
	defer rt.Close()
	s, err := rt.PlanSnapshot(l)
	if err != nil {
		t.Fatalf("PlanSnapshot: %v", err)
	}
	return s
}

// equalSnapshots compares every structural field of two snapshots.
// Stats.CacheHit is excluded: it describes the lookup, not the plan, and the
// wire format deliberately does not carry it.
func equalSnapshots(t *testing.T, a, b *core.PlanSnapshot) {
	t.Helper()
	if a.Iterations != b.Iterations || a.Data != b.Data || a.Workers != b.Workers {
		t.Fatalf("dimensions differ: %d/%d/%d vs %d/%d/%d", a.Iterations, a.Data, a.Workers, b.Iterations, b.Data, b.Workers)
	}
	if !equalInt32(a.Writer, b.Writer) {
		t.Errorf("writer index differs")
	}
	if len(a.Preds) != len(b.Preds) {
		t.Fatalf("pred list counts differ: %d vs %d", len(a.Preds), len(b.Preds))
	}
	for i := range a.Preds {
		if !equalInt32(a.Preds[i], b.Preds[i]) {
			t.Errorf("preds[%d] differ: %v vs %v", i, a.Preds[i], b.Preds[i])
		}
	}
	if !equalInt32(a.Levels.Level, b.Levels.Level) || !equalInt32(a.Levels.Members, b.Levels.Members) || !equalInt32(a.Levels.Off, b.Levels.Off) {
		t.Errorf("level decompositions differ")
	}
	if (a.Schedule == nil) != (b.Schedule == nil) {
		t.Fatalf("one snapshot has a schedule, the other does not")
	}
	if a.Schedule != nil {
		if a.Schedule.Levels() != b.Schedule.Levels() || a.Schedule.Workers() != b.Schedule.Workers() {
			t.Fatalf("schedule shapes differ")
		}
		if a.Schedule.PolicyUsed != b.Schedule.PolicyUsed {
			t.Errorf("schedule policies differ: %v vs %v", a.Schedule.PolicyUsed, b.Schedule.PolicyUsed)
		}
		for l := 0; l < a.Schedule.Levels(); l++ {
			for w := 0; w < a.Schedule.Workers(); w++ {
				if !equalInt32(a.Schedule.Items(l, w), b.Schedule.Items(l, w)) {
					t.Errorf("schedule items differ at level %d worker %d", l, w)
				}
			}
		}
	}
	if a.Policy != b.Policy {
		t.Errorf("policies differ: %v vs %v", a.Policy, b.Policy)
	}
	sa, sb := a.Stats, b.Stats
	sa.CacheHit, sb.CacheHit = false, false
	if sa != sb {
		t.Errorf("stats differ: %+v vs %+v", sa, sb)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRoundTripRandomDAGs is the property test: a plan snapshot of a random
// DAG survives export → JSON → decode → Snapshot structurally unchanged, for
// a spread of sizes, densities and worker counts.
func TestRoundTripRandomDAGs(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 5 + int(seed)*7
		workers := 1 + int(seed)%5
		l := randomLoop(seed, n)
		orig := snapshot(t, l, workers)
		doc := FromSnapshot("random", orig)

		var buf bytes.Buffer
		if err := EncodeJSON(&buf, doc); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		decoded, err := DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		back, err := decoded.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: rebuild: %v", seed, err)
		}
		equalSnapshots(t, orig, back)
	}
}

// TestEncodeDeterministic demands identical bytes from (a) encoding the same
// document twice and (b) encoding snapshots taken from two independently
// built runtimes over structurally identical loops — the guarantee that makes
// exported plans diffable and committable as goldens.
func TestEncodeDeterministic(t *testing.T) {
	const seed, n, workers = 3, 40, 4
	encode := func() []byte {
		s := snapshot(t, randomLoop(seed, n), workers)
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, FromSnapshot("det", s)); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	first := encode()

	var again bytes.Buffer
	s := snapshot(t, randomLoop(seed, n), workers)
	d := FromSnapshot("det", s)
	if err := EncodeJSON(&again, d); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var repeat bytes.Buffer
	if err := EncodeJSON(&repeat, d); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(again.Bytes(), repeat.Bytes()) {
		t.Error("encoding the same document twice produced different bytes")
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Error("snapshots from two independently built runtimes encoded differently")
	}
}

// TestSnapshotIsolation verifies the snapshot is a deep copy: scribbling over
// every slice of a returned snapshot must not disturb a second snapshot of
// the same cached plan.
func TestSnapshotIsolation(t *testing.T) {
	l := randomLoop(5, 30)
	rt := core.NewRuntime(l.Data, core.Options{Workers: 3, Executor: core.ExecWavefront})
	defer rt.Close()
	first, err := rt.PlanSnapshot(l)
	if err != nil {
		t.Fatal(err)
	}
	var pristine bytes.Buffer
	if err := EncodeJSON(&pristine, FromSnapshot("iso", first)); err != nil {
		t.Fatal(err)
	}
	for i := range first.Writer {
		first.Writer[i] = -1
	}
	for _, ps := range first.Preds {
		for i := range ps {
			ps[i] = 0
		}
	}
	for i := range first.Levels.Members {
		first.Levels.Members[i] = 0
	}
	second, err := rt.PlanSnapshot(l)
	if err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := EncodeJSON(&after, FromSnapshot("iso", second)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pristine.Bytes(), after.Bytes()) {
		t.Error("mutating a snapshot leaked into the cached plan")
	}
}

// TestDecodeRejects pins the defensive side of the wire format: schema
// mismatches and structural corruption fail loudly at decode, and a schedule
// edited out of sync with its decomposition fails at Snapshot (the
// self-checking property).
func TestDecodeRejects(t *testing.T) {
	base := func() *Doc { return FromSnapshot("bad", snapshot(t, randomLoop(7, 20), 3)) }

	reencode := func(d *Doc) ([]byte, error) {
		var buf bytes.Buffer
		err := EncodeJSON(&buf, d)
		return buf.Bytes(), err
	}

	t.Run("schema", func(t *testing.T) {
		d := base()
		d.Schema = SchemaVersion + 1
		raw, err := reencode(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeJSON(bytes.NewReader(raw)); err == nil {
			t.Error("future schema accepted")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if _, err := DecodeJSON(bytes.NewReader([]byte("%%MatrixMarket not json"))); err == nil {
			t.Error("non-JSON input accepted")
		}
	})
	t.Run("writer-range", func(t *testing.T) {
		d := base()
		d.Writer[0] = int32(d.Iterations)
		if err := d.Validate(); err == nil {
			t.Error("out-of-range writer accepted")
		}
	})
	t.Run("backward-pred", func(t *testing.T) {
		d := base()
		// Point some iteration at itself: never a valid predecessor.
		for i := range d.Preds {
			if len(d.Preds[i]) > 0 {
				d.Preds[i][0] = int32(i)
				break
			}
		}
		if err := d.Validate(); err == nil {
			t.Error("self-dependency accepted")
		}
	})
	t.Run("duplicate-member", func(t *testing.T) {
		d := base()
		if len(d.Levels.Members) < 2 {
			t.Skip("decomposition too small")
		}
		d.Levels.Members[1] = d.Levels.Members[0]
		if err := d.Validate(); err == nil {
			t.Error("duplicated level member accepted")
		}
	})
	t.Run("offset-past-members", func(t *testing.T) {
		// The last offset spans the member list, but an earlier one points
		// past it: slicing level 0 before seeing level 1 would panic.
		raw := `{"schema":1,"iterations":2,"data":0,"writer":[],"preds":[[],[]],` +
			`"levels":{"members":[0,1],"off":[0,9,2]},"stats":{"iterations":2}}`
		if _, err := DecodeJSON(strings.NewReader(raw)); err == nil {
			t.Error("level offset past the member list accepted")
		}
	})
	t.Run("stats-mismatch", func(t *testing.T) {
		d := base()
		d.Stats.Iterations++
		if err := d.Validate(); err == nil {
			t.Error("stats/document iteration mismatch accepted")
		}
	})
	t.Run("bad-policy", func(t *testing.T) {
		d := base()
		if d.Schedule == nil {
			t.Fatal("expected a schedule")
		}
		d.Schedule.Policy = "guided"
		if err := d.Validate(); err == nil {
			t.Error("unknown policy accepted")
		}
	})
	t.Run("edited-schedule", func(t *testing.T) {
		d := base()
		if d.Schedule == nil {
			t.Fatal("expected a schedule")
		}
		// Swap two workers' assignments in the widest level: the document
		// still validates shape-wise, but Snapshot's rebuild-and-compare
		// must notice the schedule no longer matches the decomposition.
		swapped := false
		for l := range d.Schedule.Items {
			ws := d.Schedule.Items[l]
			for w := 1; w < len(ws); w++ {
				if len(ws[0]) != len(ws[w]) || !equalInt32(ws[0], ws[w]) {
					ws[0], ws[w] = ws[w], ws[0]
					swapped = true
					break
				}
			}
			if swapped {
				break
			}
		}
		if !swapped {
			t.Skip("no asymmetric level to swap")
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("shape validation should still pass: %v", err)
		}
		if _, err := d.Snapshot(); err == nil {
			t.Error("edited schedule replayed silently")
		}
	})
}

// TestDOTDeterministic pins that rendering the same document twice (and a
// document rebuilt from its own JSON) yields identical DOT bytes.
func TestDOTDeterministic(t *testing.T) {
	d := FromSnapshot("dot", snapshot(t, randomLoop(11, 25), 2))
	first := d.DOT()
	if second := d.DOT(); first != second {
		t.Error("two renders of one document differ")
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.DOT() != first {
		t.Error("DOT differs after a JSON round trip")
	}
}

// FuzzDecodeJSON feeds arbitrary bytes to the plan import: every input must
// yield an error or a document that rebuilds into a snapshot without
// panicking. The committed doastat plan exports seed the corpus.
func FuzzDecodeJSON(f *testing.F) {
	seeds, err := filepath.Glob("../doastat/testdata/*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed plan documents (%v)", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = d.Snapshot() // a schedule out of sync with the levels is an error, not a panic
	})
}
