package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a sparse matrix in MatrixMarket coordinate format —
// the interchange format real sparse-matrix collections (SuiteSparse, the
// Harwell-Boeing successors) ship in, and the fixture format doastat accepts.
//
// Supported headers: object "matrix", format "coordinate", field "real",
// "integer" or "pattern" (pattern entries get value 1), symmetry "general",
// "symmetric" or "skew-symmetric" (symmetric storage is expanded: each
// off-diagonal entry (i, j) also yields (j, i), negated for skew). Array
// (dense) format and complex fields are rejected. Indices are 1-based in the
// file, 0-based in the returned CSR; duplicate entries sum, as in
// FromTriplets.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("sparse: reading MatrixMarket header: %w", err)
		}
		return nil, fmt.Errorf("sparse: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) != 5 || header[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("sparse: malformed MatrixMarket banner %q", sc.Text())
	}
	object, format, field, symmetry := header[1], header[2], header[3], header[4]
	if object != "matrix" {
		return nil, fmt.Errorf("sparse: MatrixMarket object %q not supported (only matrix)", object)
	}
	if format != "coordinate" {
		return nil, fmt.Errorf("sparse: MatrixMarket format %q not supported (only coordinate)", format)
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: MatrixMarket field %q not supported (real, integer or pattern)", field)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("sparse: MatrixMarket symmetry %q not supported (general, symmetric or skew-symmetric)", symmetry)
	}

	// Size line: first non-comment, non-blank line after the banner.
	var rows, cols, nnz int
	sized := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("sparse: malformed MatrixMarket size line %q", line)
		}
		var err error
		if rows, err = strconv.Atoi(f[0]); err == nil {
			if cols, err = strconv.Atoi(f[1]); err == nil {
				nnz, err = strconv.Atoi(f[2])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("sparse: malformed MatrixMarket size line %q", line)
		}
		sized = true
		break
	}
	if !sized {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("sparse: reading MatrixMarket size line: %w", err)
		}
		return nil, fmt.Errorf("sparse: MatrixMarket input has no size line")
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative MatrixMarket dimensions %dx%d nnz=%d", rows, cols, nnz)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		// Execution plans index iterations and elements with int32.
		return nil, fmt.Errorf("sparse: MatrixMarket dimensions %dx%d exceed %d", rows, cols, math.MaxInt32)
	}

	// The size line's nnz is unverified until the entries are counted, so it
	// must not size an allocation.
	var ts []Triplet
	read := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("sparse: malformed MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: malformed MatrixMarket entry %q", line)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: malformed MatrixMarket entry %q", line)
		}
		v := 1.0
		if field != "pattern" {
			if v, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, fmt.Errorf("sparse: malformed MatrixMarket entry %q", line)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: MatrixMarket entry (%d, %d) outside %dx%d matrix", i, j, rows, cols)
		}
		ts = append(ts, Triplet{Row: i - 1, Col: j - 1, Val: v})
		if symmetry != "general" && i != j {
			mv := v
			if symmetry == "skew-symmetric" {
				mv = -v
			}
			ts = append(ts, Triplet{Row: j - 1, Col: i - 1, Val: mv})
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket entries: %w", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: MatrixMarket input has %d entries, size line promised %d", read, nnz)
	}
	return FromTriplets(rows, cols, ts)
}

// WriteMatrixMarket writes the matrix in MatrixMarket coordinate real general
// format, entries in row-major order with 1-based indices — readable back by
// ReadMatrixMarket, and deterministic for a given matrix.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general")
	fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.Col[k]+1, m.Val[k])
		}
	}
	return bw.Flush()
}
