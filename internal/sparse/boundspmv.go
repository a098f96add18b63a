package sparse

// BoundSpMV is a reusable SpMV kernel bound to one sparse operand —
// CSR, order-exact MSR, or SELL-C-σ. Every binding accumulates each row
// in the serial CSR sequence, so all bindings are bitwise-identical to
// CSR.MulVec / CSR.MulVecAdd and callers may switch formats freely.
//
// Bind at Setup time and call Apply per product: the binding owns all
// scratch, so Apply performs no allocation.
type BoundSpMV struct {
	csr  *CSR
	msr  *MSR
	sell *SELL

	// msrSplit[i] is the absolute Val/Ind index where MSR row i's
	// diagonal term belongs in ascending-column order, or -1 when the
	// source CSR stored no diagonal entry (see MSROrderedFromCSR).
	msrSplit []int

	add bool
}

// BindCSR points the kernel at a CSR operand. With add set, Apply
// computes y += A·x (the ghost-column update in pmat.Apply); otherwise
// y = A·x.
func (t *BoundSpMV) BindCSR(a *CSR, add bool) {
	*t = BoundSpMV{csr: a, add: add}
}

// BindMSROrdered points the kernel at an MSR operand using the
// order-exact kernel: each row accumulates in ascending column order
// with the diagonal merged at split[i], reproducing the serial CSR
// bits. Build the pair with MSROrderedFromCSR.
func (t *BoundSpMV) BindMSROrdered(a *MSR, split []int, add bool) {
	*t = BoundSpMV{msr: a, msrSplit: split, add: add}
}

// BindSELL points the kernel at a SELL-C-σ operand, run by SELL's own
// serial kernels.
func (t *BoundSpMV) BindSELL(a *SELL, add bool) {
	*t = BoundSpMV{sell: a, add: add}
}

// Format reports the bound operand's storage format (FmtCSR when
// nothing is bound yet, matching the zero value's legacy behavior).
func (t *BoundSpMV) Format() Format {
	switch {
	case t.sell != nil:
		return FmtSELL
	case t.msr != nil:
		return FmtMSR
	default:
		return FmtCSR
	}
}

// Apply runs the bound product. It panics on mis-sized vectors exactly
// as the corresponding serial kernel does.
func (t *BoundSpMV) Apply(y, x []float64) {
	switch {
	case t.csr != nil && t.add:
		t.csr.MulVecAdd(y, x)
	case t.csr != nil:
		t.csr.MulVec(y, x)
	case t.msr != nil:
		// Order-exact MSR: row i's diagonal term enters at msrSplit[i],
		// where the CSR row stored it.
		a := t.msr
		checkDims("MSR.MulVec x", a.N, len(x))
		checkDims("MSR.MulVec y", a.N, len(y))
		for i := 0; i < a.N; i++ {
			s := 0.0
			end := a.Ind[i+1]
			sp := t.msrSplit[i]
			for k := a.Ind[i]; k < end; k++ {
				if k == sp {
					s += a.Val[i] * x[i]
				}
				s += a.Val[k] * x[a.Ind[k]]
			}
			if sp == end {
				s += a.Val[i] * x[i]
			}
			if t.add {
				y[i] += s
			} else {
				y[i] = s
			}
		}
	case t.sell != nil && t.add:
		t.sell.MulVecAdd(y, x)
	case t.sell != nil:
		t.sell.MulVec(y, x)
	default:
		panic("sparse: BoundSpMV.Apply before Bind")
	}
}
