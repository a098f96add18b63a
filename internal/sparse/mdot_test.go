package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// mdotColumns builds cols length-n columns plus a vector w whose entries
// mix magnitudes, so a reordered sum would show in the low bits.
func mdotColumns(n, cols int, seed int64) (w []float64, v [][]float64) {
	w = RandomVector(n, seed)
	for i := range w {
		w[i] *= math.Pow(10, float64(i%7-3))
	}
	v = make([][]float64, cols)
	for i := range v {
		v[i] = RandomVector(n, seed+int64(i)+1)
	}
	return w, v
}

// sameBits reports whether a and b are the same float64 bit pattern, or
// both NaN. NaN payloads and signs are outside the bitwise contract: Go
// leaves unspecified which operand's payload an arithmetic op
// propagates, and the register allocator picks operand order per loop.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkMultiKernels asserts MDot is bitwise equal to per-column Dot and
// MAXPY bitwise equal to successive Axpy(−h[i], v[i], w).
func checkMultiKernels(t *testing.T, w []float64, v [][]float64, h []float64) {
	t.Helper()
	got := make([]float64, len(v))
	MDot(w, v, got)
	for i := range v {
		if want := Dot(w, v[i]); !sameBits(got[i], want) {
			t.Fatalf("MDot column %d of %d (n=%d): %v (%#x), Dot gives %v (%#x)",
				i, len(v), len(w), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	gotW := append([]float64(nil), w...)
	MAXPY(h, v, gotW)
	wantW := append([]float64(nil), w...)
	for i := range v {
		Axpy(-h[i], v[i], wantW)
	}
	for k := range gotW {
		if !sameBits(gotW[k], wantW[k]) {
			t.Fatalf("MAXPY element %d (cols=%d, n=%d): %v, successive Axpy give %v",
				k, len(v), len(w), gotW[k], wantW[k])
		}
	}
}

// TestMultiKernelsBitwise covers column counts 0–9 (every length of the
// four-column tail) and vector lengths 0, 1 and 4k+3.
func TestMultiKernelsBitwise(t *testing.T) {
	for _, n := range []int{0, 1, 4*5 + 3, 4*257 + 3} {
		for cols := 0; cols <= 9; cols++ {
			t.Run(fmt.Sprintf("n=%d/cols=%d", n, cols), func(t *testing.T) {
				w, v := mdotColumns(n, cols, int64(7*n+cols))
				h := make([]float64, cols)
				MDot(w, v, h) // realistic coefficients for the update check
				checkMultiKernels(t, w, v, h)
			})
		}
	}
}

// TestMultiKernelsDimensionPanics checks the documented panic on
// mismatched column lengths or coefficient counts.
func TestMultiKernelsDimensionPanics(t *testing.T) {
	w := make([]float64, 5)
	short := [][]float64{make([]float64, 5), make([]float64, 4)}
	for name, fn := range map[string]func(){
		"MDot/short-column":  func() { MDot(w, short, make([]float64, 2)) },
		"MDot/short-h":       func() { MDot(w, short[:1], nil) },
		"MAXPY/short-column": func() { MAXPY(make([]float64, 2), short, w) },
		"MAXPY/short-h":      func() { MAXPY(nil, short[:1], w) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on mismatched dimensions")
				}
			}()
			fn()
		})
	}
}

// FuzzMultiDot drives MDot and MAXPY with arbitrary lengths, column
// counts and values — ±Inf, NaN and subnormals included — and compares
// them bit for bit (up to NaN payload) with per-column Dot and
// successive Axpy.
func FuzzMultiDot(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), uint8(5), []byte("classical gram-schmidt"))
	inf := make([]byte, 16)
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(inf[8:], math.Float64bits(math.Inf(-1)))
	f.Add(uint8(3), uint8(6), inf)
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(uint8(9), uint8(4), nan)
	f.Fuzz(func(t *testing.T, nb, cb uint8, data []byte) {
		n, cols := int(nb)%67, int(cb)%12
		// Values cycle through the raw 8-byte words of data, so every
		// bit pattern (NaN payloads, ±Inf, subnormals) is reachable.
		words := len(data) / 8
		val := func(k int) float64 {
			if words == 0 {
				return float64(k%5) - 2
			}
			off := 8 * (k % words)
			return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		next := 0
		vec := func() []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = val(next)
				next++
			}
			return x
		}
		w := vec()
		v := make([][]float64, cols)
		for i := range v {
			v[i] = vec()
		}
		h := make([]float64, cols)
		for i := range h {
			h[i] = val(next)
			next++
		}
		checkMultiKernels(t, w, v, h)
	})
}
