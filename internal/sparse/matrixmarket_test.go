package sparse

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestMatrixMarketRoundTrip writes a matrix and reads it back, entry for
// entry, then re-writes the result and demands identical bytes (the writer's
// determinism).
func TestMatrixMarketRoundTrip(t *testing.T) {
	m, err := FromTriplets(3, 4, []Triplet{
		{Row: 0, Col: 0, Val: 1.5},
		{Row: 0, Col: 3, Val: -2.25},
		{Row: 1, Col: 1, Val: 1e-17},
		{Row: 2, Col: 0, Val: math.Pi},
		{Row: 2, Col: 2, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	equalCSR(t, m, got)

	var again bytes.Buffer
	if err := WriteMatrixMarket(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("re-writing the read-back matrix changed the bytes")
	}
}

func equalCSR(t *testing.T, want, got *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("shape %dx%d nnz=%d, want %dx%d nnz=%d", got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := 0; i < want.Rows; i++ {
		if got.RowPtr[i+1]-got.RowPtr[i] != want.RowPtr[i+1]-want.RowPtr[i] {
			t.Fatalf("row %d has %d entries, want %d", i, got.RowPtr[i+1]-got.RowPtr[i], want.RowPtr[i+1]-want.RowPtr[i])
		}
		for k := want.RowPtr[i]; k < want.RowPtr[i+1]; k++ {
			dk := got.RowPtr[i] - want.RowPtr[i]
			if got.Col[k+dk] != want.Col[k] || got.Val[k+dk] != want.Val[k] {
				t.Errorf("row %d entry %d: (%d, %g), want (%d, %g)", i, k-want.RowPtr[i], got.Col[k+dk], got.Val[k+dk], want.Col[k], want.Val[k])
			}
		}
	}
}

// TestMatrixMarketVariants covers the header dialects: pattern entries get
// value 1, symmetric storage expands off-diagonal entries, skew-symmetric
// expansion negates them, comments and blank lines are skipped, and the
// banner is case-insensitive.
func TestMatrixMarketVariants(t *testing.T) {
	at := func(m *CSR, i, j int) float64 {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Col[k] == j {
				return m.Val[k]
			}
		}
		return 0
	}

	t.Run("pattern", func(t *testing.T) {
		m, err := ReadMatrixMarket(strings.NewReader(
			"%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n2 1\n2 2\n"))
		if err != nil {
			t.Fatal(err)
		}
		if m.NNZ() != 3 || at(m, 1, 0) != 1 {
			t.Errorf("pattern entries not read as ones: nnz=%d a(1,0)=%g", m.NNZ(), at(m, 1, 0))
		}
	})
	t.Run("symmetric", func(t *testing.T) {
		m, err := ReadMatrixMarket(strings.NewReader(
			"%%matrixmarket MATRIX coordinate real SYMMETRIC\n% lower storage\n\n3 3 3\n1 1 2.0\n3 1 5.0\n3 3 1.0\n"))
		if err != nil {
			t.Fatal(err)
		}
		if m.NNZ() != 4 {
			t.Fatalf("symmetric expansion gave %d entries, want 4", m.NNZ())
		}
		if at(m, 0, 2) != 5 || at(m, 2, 0) != 5 {
			t.Errorf("mirrored entry wrong: a(0,2)=%g a(2,0)=%g", at(m, 0, 2), at(m, 2, 0))
		}
	})
	t.Run("skew-symmetric", func(t *testing.T) {
		m, err := ReadMatrixMarket(strings.NewReader(
			"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n"))
		if err != nil {
			t.Fatal(err)
		}
		if at(m, 1, 0) != 3 || at(m, 0, 1) != -3 {
			t.Errorf("skew mirror wrong: a(1,0)=%g a(0,1)=%g", at(m, 1, 0), at(m, 0, 1))
		}
	})
	t.Run("integer", func(t *testing.T) {
		m, err := ReadMatrixMarket(strings.NewReader(
			"%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n"))
		if err != nil {
			t.Fatal(err)
		}
		if at(m, 0, 0) != 7 {
			t.Errorf("integer entry read as %g, want 7", at(m, 0, 0))
		}
	})
	t.Run("duplicates-sum", func(t *testing.T) {
		m, err := ReadMatrixMarket(strings.NewReader(
			"%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 2.0\n1 1 3.0\n"))
		if err != nil {
			t.Fatal(err)
		}
		if at(m, 0, 0) != 5 {
			t.Errorf("duplicate entries summed to %g, want 5", at(m, 0, 0))
		}
	})
}

// TestMatrixMarketRejects pins the reader's error paths.
func TestMatrixMarketRejects(t *testing.T) {
	for name, input := range map[string]string{
		"empty":             "",
		"bad-banner":        "%MatrixMarket matrix coordinate real general\n1 1 0\n",
		"short-banner":      "%%MatrixMarket matrix coordinate\n1 1 0\n",
		"vector-object":     "%%MatrixMarket vector coordinate real general\n1 1 0\n",
		"array-format":      "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"complex-field":     "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
		"hermitian":         "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
		"no-size":           "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"bad-size":          "%%MatrixMarket matrix coordinate real general\n1 1\n",
		"bad-entry":         "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 x 1.0\n",
		"short-entry":       "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n",
		"out-of-range":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"zero-index":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
		"entry-count-short": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"entry-count-long":  "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n1 1 2.0\n",
		"huge-nnz":          "%%MatrixMarket matrix coordinate real general\n1 1 999999999999999999\n",
		"huge-rows":         "%%MatrixMarket matrix coordinate real general\n999999999999999999 1 0\n",
		"huge-cols":         "%%MatrixMarket matrix coordinate real general\n1 2147483648 0\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadMatrixMarket(strings.NewReader(input)); err == nil {
				t.Errorf("accepted %q", input)
			}
		})
	}
}

// FuzzReadMatrixMarket feeds arbitrary bytes to the reader: every input must
// yield an error or a well-formed CSR matrix, never a panic.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.0\n2 1 -1\n3 2 1e-3\n3 3 4\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n\n2 2 2\n1 1\n2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 3\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n1 1 999999999999999999\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredRows(data) > 1<<20 {
			// A legal header may declare up to MaxInt32 rows, and the row
			// pointer array is allocated from it; skip what this process
			// cannot afford rather than fuzz the allocator.
			t.Skip()
		}
		m, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(m.RowPtr) != m.Rows+1 || m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.Col) || len(m.Col) != len(m.Val) {
			t.Fatalf("malformed CSR: %dx%d rowptr=%d col=%d val=%d", m.Rows, m.Cols, len(m.RowPtr), len(m.Col), len(m.Val))
		}
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if m.Col[k] < 0 || m.Col[k] >= m.Cols || (k > m.RowPtr[i] && m.Col[k] <= m.Col[k-1]) {
					t.Fatalf("row %d: column %d out of order or outside [0, %d)", i, m.Col[k], m.Cols)
				}
			}
		}
	})
}

// declaredRows returns the row count on the first size line of a
// MatrixMarket input — the first line after the banner that is neither blank
// nor a comment — or 0 when there is none to parse.
func declaredRows(data []byte) int {
	lines := strings.Split(string(data), "\n")
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if f := strings.Fields(line); len(f) > 0 {
			rows, _ := strconv.Atoi(f[0])
			return rows
		}
		return 0
	}
	return 0
}
