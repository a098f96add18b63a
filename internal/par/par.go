// Package par is the intra-rank parallelism layer: a deterministic
// worker pool (the second parallelism level under internal/comm, per
// ShyLU-node's on-node solver design) and fixed-slot partial
// reductions. Sparse triangular solves do not run on a Pool: the
// dependency levels of the repository's factors are too narrow to
// repay a dispatch per level (docs/PERFORMANCE.md).
//
// Determinism contract (docs/PERFORMANCE.md "Two-level parallelism"):
// every kernel dispatched on a Pool must produce bitwise-identical
// results for any worker count, including 1. Two mechanisms deliver
// that:
//
//   - Row-partitioned kernels (SpMV, element-wise smoother updates)
//     perform each output element's arithmetic in the same sequence
//     regardless of which worker runs the row, so any static partition
//     is bitwise-neutral by construction.
//
//   - Reductions (Dot, Norm2) accumulate into fixed slots whose layout
//     depends only on the vector length — never on the worker count —
//     and fold the per-slot partials in ascending slot order on the
//     caller after the join.
//
// Workers never touch internal/comm: all communication stays on the
// rank goroutine that owns the pool. Pools are Setup-time artifacts
// (built once per "workers" parameter value, cached by the component
// caches keyed on cfgVer) and their dispatch path performs no
// allocation, preserving the steady-state 0 allocs/op invariant.
package par

// Task is one parallel operation dispatched on a Pool. Range processes
// the contiguous unit range [lo, hi) as dispatch slot slot. Range
// methods run concurrently on pool workers and must not communicate,
// must not write state shared with other slots, and must not fold
// floating-point values into shared accumulators — accumulate into a
// per-slot partial and fold after Run returns (the spmddet analyzer
// enforces this shape on any Range(int, int, int) method).
type Task interface {
	Range(slot, lo, hi int)
}

// fanoutMin is the unit count below which Run executes inline: waking a
// worker costs more than a handful of rows, and inline execution is
// bitwise-identical anyway.
const fanoutMin = 4

// Pool is a fixed-size intra-rank worker pool. A Pool is owned by one
// rank goroutine; Run may only be called from that goroutine, one
// dispatch at a time. The zero of *Pool (nil) is a valid serial pool:
// every method falls back to inline execution.
type Pool struct {
	workers int

	// Dispatch state for the in-flight Run, published to workers by the
	// wake-channel send and read back after the done-channel receive.
	units  int
	wEff   int
	task   Task
	wake   []chan struct{} // one per helper worker (ids 1..workers-1)
	done   chan struct{}
	panics []any // per-slot panic capture, re-raised on the caller
	closed bool

	// Persistent reduction tasks and their slot-partial scratch; grown
	// on first use, reused forever after (0 allocs at steady state).
	dot      dotTask
	nrm      normTask
	partials []float64

	// Telemetry counters (read via Stats).
	dispatches int64
	inline     int64
}

// New builds a pool of w workers. w < 1 is treated as 1. For w == 1 no
// goroutines are spawned and every Run executes inline; for w > 1 the
// w-1 helper workers park on their wake channels until Close.
func New(w int) *Pool {
	if w < 1 {
		w = 1
	}
	p := &Pool{workers: w}
	if w > 1 {
		p.wake = make([]chan struct{}, w-1)
		p.done = make(chan struct{}, w-1)
		p.panics = make([]any, w)
		for i := range p.wake {
			p.wake[i] = make(chan struct{})
			go p.worker(i + 1)
		}
	}
	return p
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Parallel reports whether dispatches can actually fan out. Structural
// kernels (SpMV, triangular solves) use it to keep the plain serial
// code path when fanning out cannot help; that switch is bitwise-
// neutral because row-partitioned kernels do not change any element's
// arithmetic sequence.
func (p *Pool) Parallel() bool { return p != nil && p.workers > 1 }

// Run partitions the unit range [0, n) statically across the workers
// (slot k gets [k*n/w, (k+1)*n/w)) and blocks until every slot's
// Range call returns. If any slot panics, Run re-panics the lowest
// slot's value on the caller after all workers have joined. Run on a
// nil pool, a 1-worker pool, or a tiny n executes t.Range(0, 0, n)
// inline on the caller.
func (p *Pool) Run(n int, t Task) {
	if n <= 0 {
		return
	}
	if p == nil {
		t.Range(0, 0, n)
		return
	}
	if p.workers == 1 || n < fanoutMin {
		p.inline++
		t.Range(0, 0, n)
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	p.units, p.wEff, p.task = n, w, t
	for i := 1; i < w; i++ {
		p.wake[i-1] <- struct{}{}
	}
	p.runSlot(0)
	for i := 1; i < w; i++ {
		<-p.done
	}
	p.task = nil
	p.dispatches++
	for i := 0; i < w; i++ {
		if r := p.panics[i]; r != nil {
			for j := range p.panics {
				p.panics[j] = nil
			}
			panic(r)
		}
	}
}

// runSlot executes one slot's share of the in-flight task, capturing a
// panic into the slot's cell so Run can re-raise it deterministically.
func (p *Pool) runSlot(slot int) {
	defer func() {
		if r := recover(); r != nil {
			p.panics[slot] = r
		}
	}()
	if slot >= p.wEff {
		return
	}
	n, w := p.units, p.wEff
	p.task.Range(slot, slot*n/w, (slot+1)*n/w)
}

// worker is the parked helper loop for slots 1..workers-1.
func (p *Pool) worker(id int) {
	for range p.wake[id-1] {
		p.runSlot(id)
		p.done <- struct{}{}
	}
}

// Close releases the helper goroutines. The pool must be idle; Run
// after Close panics. Close on a nil or serial pool is a no-op, and
// closing twice is safe.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.wake {
		close(ch)
	}
}

// Stats returns cumulative dispatch counters: fan-outs that engaged
// helper workers and runs executed inline (serial pool or tiny n).
// Reductions that collapse to a single slot count as inline.
func (p *Pool) Stats() (dispatches, inline int64) {
	if p == nil {
		return 0, 0
	}
	return p.dispatches, p.inline
}

// reserve returns n persistent scratch cells for slot partials.
func (p *Pool) reserve(n int) []float64 {
	if cap(p.partials) < n {
		p.partials = make([]float64, n)
	}
	return p.partials[:n]
}
