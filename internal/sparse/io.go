package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCOO writes a matrix in a Matrix-Market-like coordinate text format:
// a header line "%%MatrixMarket matrix coordinate real general", a size
// line "rows cols nnz", then one "i j v" triplet per line (1-based indices,
// as in the Matrix Market standard).
func WriteCOO(w io.Writer, m Matrix) error {
	bw := bufio.NewWriter(w)
	rows, cols := m.Dims()
	coo := toCOO(m)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", rows, cols, len(coo.Val)); err != nil {
		return err
	}
	for k := range coo.Val {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", coo.Row[k]+1, coo.Col[k]+1, coo.Val[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func toCOO(m Matrix) *COO {
	switch a := m.(type) {
	case *COO:
		return a
	case *CSR:
		return a.ToCOO()
	case *CSC:
		return a.ToCSR().ToCOO()
	case *MSR:
		return a.ToCSR().ToCOO()
	case *VBR:
		return a.ToCSR().ToCOO()
	case *FEM:
		return a.ToCOO()
	}
	panic(fmt.Sprintf("sparse: WriteCOO: unsupported matrix type %T", m))
}

// ReadCOO parses the format written by WriteCOO. Comment lines starting
// with '%' are skipped.
func ReadCOO(r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var rows, cols, nnz int
	sized := false
	var coo *COO
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if !sized {
			if len(fields) != 3 {
				return nil, fmt.Errorf("sparse: ReadCOO: line %d: size line needs 3 fields", line)
			}
			var err error
			if rows, err = strconv.Atoi(fields[0]); err != nil {
				return nil, fmt.Errorf("sparse: ReadCOO: line %d: %v", line, err)
			}
			if cols, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("sparse: ReadCOO: line %d: %v", line, err)
			}
			if nnz, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("sparse: ReadCOO: line %d: %v", line, err)
			}
			coo = NewCOO(rows, cols)
			coo.Row = make([]int, 0, nnz)
			coo.Col = make([]int, 0, nnz)
			coo.Val = make([]float64, 0, nnz)
			sized = true
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("sparse: ReadCOO: line %d: triplet needs 3 fields", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: ReadCOO: line %d: %v", line, err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: ReadCOO: line %d: %v", line, err)
		}
		v, err := parseFinite(fields[2])
		if err != nil {
			return nil, fmt.Errorf("sparse: ReadCOO: line %d: %w: %v", line, ErrMMEntry, err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: ReadCOO: line %d: index (%d,%d) outside %dx%d", line, i, j, rows, cols)
		}
		coo.Append(i-1, j-1, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sized {
		return nil, fmt.Errorf("sparse: ReadCOO: no size line found")
	}
	if len(coo.Val) != nnz {
		return nil, fmt.Errorf("sparse: ReadCOO: header promised %d entries, found %d", nnz, len(coo.Val))
	}
	return coo, nil
}

// WriteVector writes a dense vector, one value per line, with a size
// header.
func WriteVector(w io.Writer, x []float64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", len(x)); err != nil {
		return err
	}
	for _, v := range x {
		if _, err := fmt.Fprintf(bw, "%.17g\n", v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadVector parses the format written by WriteVector.
func ReadVector(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := -1
	var x []float64
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		if n < 0 {
			var err error
			if n, err = strconv.Atoi(text); err != nil {
				return nil, fmt.Errorf("sparse: ReadVector: bad size line: %v", err)
			}
			x = make([]float64, 0, n)
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("sparse: ReadVector: %v", err)
		}
		x = append(x, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("sparse: ReadVector: empty input")
	}
	if len(x) != n {
		return nil, fmt.Errorf("sparse: ReadVector: header promised %d values, found %d", n, len(x))
	}
	return x, nil
}
