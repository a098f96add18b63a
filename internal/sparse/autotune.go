package sparse

import (
	"fmt"
	"time"
)

// FormatChoice is the runtime SpMV storage-format selection exposed as
// the "format" backend parameter. The zero value is the legacy CSR
// path, so components that never see the parameter behave exactly as
// before.
type FormatChoice int

// Format choices.
const (
	ChoiceCSR  FormatChoice = iota // legacy CSR kernels (default)
	ChoiceAuto                     // probe the candidates at Setup, bind the winner
	ChoiceMSR                      // order-exact MSR kernel
	ChoiceSELL                     // SELL-C-σ
)

// ParseFormatChoice maps a "format" parameter value to its choice.
func ParseFormatChoice(s string) (FormatChoice, error) {
	switch s {
	case "csr":
		return ChoiceCSR, nil
	case "auto":
		return ChoiceAuto, nil
	case "msr":
		return ChoiceMSR, nil
	case "sell":
		return ChoiceSELL, nil
	}
	return ChoiceCSR, fmt.Errorf("sparse: unknown format %q (want auto|csr|msr|sell)", s)
}

// String returns the parameter spelling of the choice.
func (c FormatChoice) String() string {
	switch c {
	case ChoiceCSR:
		return "csr"
	case ChoiceAuto:
		return "auto"
	case ChoiceMSR:
		return "msr"
	case ChoiceSELL:
		return "sell"
	}
	return fmt.Sprintf("FormatChoice(%d)", int(c))
}

// Probe parameters. The procedure is deterministic: a fixed candidate
// order, a fixed repetition count with the median rep kept, a fixed
// probe vector, and a structure-heuristic fast path that skips timing
// for matrices too small for the kernel choice to matter. Wall-clock
// medians themselves still vary run to run — which is safe, because
// every candidate kernel is bitwise-identical, so a noisy pick costs
// speed only, never reproducibility (and ranks may pick different
// winners without any collective agreement).
const (
	// probeMinNNZ is the heuristic fast-path threshold: below it the
	// probe returns CSR without timing — per-product savings on a
	// matrix this small can never repay even the conversion cost.
	probeMinNNZ = 1 << 14

	// probeReps is the fixed number of timed repetitions per candidate
	// (median kept). An additional untimed warm-up rep precedes them.
	probeReps = 5
)

// CandidateTiming is one probed candidate's median product time.
type CandidateTiming struct {
	Format Format
	NS     int64
}

// ProbeResult reports an autotuning decision.
type ProbeResult struct {
	Choice     FormatChoice
	Candidates []CandidateTiming // empty when the fast path was taken
	TotalNS    int64             // wall time spent probing (0 on the fast path)
	Heuristic  bool              // true when the tiny-matrix fast path decided
}

// ProbeFormats times the candidate kernels on the actual operand and
// returns the winner: CSR, SELL-C-σ, and the order-exact MSR kernel
// (square matrices). Products run through the same BoundSpMV path the
// steady state uses, in add mode when add is set, so the measurement
// matches the bound kernel. Ties and
// probe-noise margins go to CSR: a candidate must beat CSR strictly to
// win, so auto never regresses the legacy path beyond noise.
func ProbeFormats(a *CSR, add bool) ProbeResult {
	if a.NNZ() < probeMinNNZ || a.Rows == 0 {
		return ProbeResult{Choice: ChoiceCSR, Heuristic: true}
	}
	start := time.Now()

	// Fixed, cheap, sign-mixed probe vector (no RNG dependency).
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1.0 + float64(i%7)*0.25 - float64(i%3)
	}
	y := make([]float64, a.Rows)

	var t BoundSpMV
	timeKernel := func() int64 {
		var reps [probeReps]int64
		t.Apply(y, x) // warm-up: faults pages, warms caches
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			t.Apply(y, x)
			reps[r] = time.Since(t0).Nanoseconds()
		}
		// Median of probeReps (insertion sort of a fixed small array).
		for i := 1; i < probeReps; i++ {
			for j := i; j > 0 && reps[j] < reps[j-1]; j-- {
				reps[j], reps[j-1] = reps[j-1], reps[j]
			}
		}
		return reps[probeReps/2]
	}

	res := ProbeResult{Choice: ChoiceCSR}
	bestNS := int64(0)
	record := func(f Format, c FormatChoice) {
		ns := timeKernel()
		res.Candidates = append(res.Candidates, CandidateTiming{f, ns})
		// Strict inequality keeps CSR (probed first) on ties.
		if len(res.Candidates) == 1 || ns < bestNS {
			bestNS, res.Choice = ns, c
		}
	}

	// Fixed candidate order: CSR first (the incumbent), then the
	// challengers.
	t.BindCSR(a, add)
	record(FmtCSR, ChoiceCSR)
	t.BindSELL(SELLFromCSR(a, DefaultSELLChunk), add)
	record(FmtSELL, ChoiceSELL)
	if a.Rows == a.Cols {
		if m, split, err := MSROrderedFromCSR(a); err == nil {
			t.BindMSROrdered(m, split, add)
			record(FmtMSR, ChoiceMSR)
		}
	}
	res.TotalNS = time.Since(start).Nanoseconds()
	return res
}
