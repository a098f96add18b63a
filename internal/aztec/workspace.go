package aztec

import (
	"math"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// azWorkspace is the per-Solver scratch reused across repeated Solve
// calls, keyed by local size (and, for the GMRES arrays, the Krylov
// space dimension), so steady-state re-solves allocate nothing.
type azWorkspace struct {
	n    int
	vecs [][]float64

	basisN, basisM  int
	v               [][]float64
	h, g, cs, sn, y []float64 // h is packed (m+1)×m, h[i*m+j]
	hj              []float64 // one Gram–Schmidt pass's projections, staged for its AllReduce

	red [3]float64 // staging for fused reductions
}

// wsVecs returns count persistent length-n scratch vectors. Contents are
// unspecified; methods must fully write what they read.
func (s *Solver) wsVecs(n, count int) [][]float64 {
	ws := &s.ws
	if ws.n != n {
		ws.vecs = nil
		ws.n = n
	}
	for len(ws.vecs) < count {
		ws.vecs = append(ws.vecs, make([]float64, n))
	}
	return ws.vecs[:count]
}

// wsKrylov sizes the GMRES workspace for local size n and Krylov space m.
func (s *Solver) wsKrylov(n, m int) *azWorkspace {
	ws := &s.ws
	if ws.basisN != n || ws.basisM != m {
		ws.v = make([][]float64, m+1)
		for i := range ws.v {
			ws.v[i] = make([]float64, n)
		}
		ws.h = make([]float64, (m+1)*m)
		ws.g = make([]float64, m+1)
		ws.cs = make([]float64, m)
		ws.sn = make([]float64, m)
		ws.y = make([]float64, m)
		ws.hj = make([]float64, m+1)
		ws.basisN, ws.basisM = n, m
	}
	return ws
}

// Fused reductions: each value below is bitwise identical to its unfused
// pmat.Norm2 / pmat.Dot counterpart (same local contribution, same
// rank-order fold); only the number of collective rounds changes. See
// docs/PERFORMANCE.md for the policy.

// fusedNorm2x2 returns (‖a‖₂, ‖b‖₂) with one AllReduce.
func (s *Solver) fusedNorm2x2(a, b []float64) (float64, float64) {
	la, lb := sparse.Norm2(a), sparse.Norm2(b)
	s.ws.red[0] = la * la
	s.ws.red[1] = lb * lb
	s.c.AllReduceFloat64sInPlace(s.ws.red[:2], comm.OpSum)
	return math.Sqrt(s.ws.red[0]), math.Sqrt(s.ws.red[1])
}

// fusedNorm2x2Dot returns (‖a‖₂, ‖b‖₂, c·d) with one AllReduce.
func (s *Solver) fusedNorm2x2Dot(a, b, c, d []float64) (float64, float64, float64) {
	la, lb := sparse.Norm2(a), sparse.Norm2(b)
	s.ws.red[0] = la * la
	s.ws.red[1] = lb * lb
	s.ws.red[2] = sparse.Dot(c, d)
	s.c.AllReduceFloat64sInPlace(s.ws.red[:3], comm.OpSum)
	return math.Sqrt(s.ws.red[0]), math.Sqrt(s.ws.red[1]), s.ws.red[2]
}

// fusedNormDot returns (‖a‖₂, a·b) with one AllReduce.
func (s *Solver) fusedNormDot(a, b []float64) (float64, float64) {
	la := sparse.Norm2(a)
	s.ws.red[0] = la * la
	s.ws.red[1] = sparse.Dot(a, b)
	s.c.AllReduceFloat64sInPlace(s.ws.red[:2], comm.OpSum)
	return math.Sqrt(s.ws.red[0]), s.ws.red[1]
}

// fusedDot2 returns (a1·b1, a2·b2) with one AllReduce.
func (s *Solver) fusedDot2(a1, b1, a2, b2 []float64) (float64, float64) {
	s.ws.red[0] = sparse.Dot(a1, b1)
	s.ws.red[1] = sparse.Dot(a2, b2)
	s.c.AllReduceFloat64sInPlace(s.ws.red[:2], comm.OpSum)
	return s.ws.red[0], s.ws.red[1]
}

// fusedMDot returns the projections x·v[i] for every column of v with
// one AllReduce, staged in the workspace. The dots of one Gram–Schmidt
// pass are independent, so each element is bitwise identical to its
// unfused global dot.
func (s *Solver) fusedMDot(x []float64, v [][]float64) []float64 {
	h := s.ws.hj[:len(v)]
	sparse.MDot(x, v, h)
	s.c.AllReduceFloat64sInPlace(h, comm.OpSum)
	return h
}
