package comm

import (
	"sync"
	"time"
)

// awaitResult reports how a blocking wait ended: normally, killed by a
// world abort, or killed by the caller's context.
type awaitResult int

const (
	awaitOK awaitResult = iota
	awaitAborted
	awaitCtxDone
)

// barrier is a reusable (cyclic) barrier for a fixed number of
// participants. Release is by tokens on one of two pre-allocated buffered
// channels (selected by generation parity) rather than by closing and
// re-making a gate channel per generation: the last arrival of a
// generation deposits parties−1 tokens, each waiter consumes one, and the
// steady-state path performs no allocation at all. Waiters select on the
// token channel, the world's abort channel and the caller's context, so a
// blocked rank can always be released.
//
// Parity reuse is safe: a rank cannot enter generation g+2 before every
// rank has entered generation g+1, and a rank only enters g+1 after
// consuming its generation-g token, so channel tokens[g%2] is drained
// before generation g+2 begins refilling it.
type barrier struct {
	mu      sync.Mutex
	parties int
	waiting int
	gen     uint
	tokens  [2]chan struct{}
	abortCh chan struct{}
}

func newBarrier(parties int, abortCh chan struct{}) *barrier {
	b := &barrier{parties: parties, abortCh: abortCh}
	b.tokens[0] = make(chan struct{}, parties)
	b.tokens[1] = make(chan struct{}, parties)
	return b
}

// await blocks until all parties of the current generation have entered,
// the world aborts, or done fires — whichever comes first. It also
// returns how long the caller was parked: the clock is read only on the
// parking path, so the last arrival (and every entry on a size-1 world)
// reports zero wait without touching it.
func (b *barrier) await(done <-chan struct{}) (awaitResult, time.Duration) {
	b.mu.Lock()
	select {
	case <-b.abortCh:
		b.mu.Unlock()
		return awaitAborted, 0
	default:
	}
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		t := b.tokens[b.gen%2]
		b.gen++
		b.mu.Unlock()
		for i := 0; i < b.parties-1; i++ {
			t <- struct{}{} // buffered to parties: never blocks
		}
		return awaitOK, 0
	}
	t := b.tokens[b.gen%2]
	b.mu.Unlock()
	start := time.Now()
	res := awaitOK
	select {
	case <-t:
	case <-b.abortCh:
		res = awaitAborted
	case <-done:
		res = awaitCtxDone
	}
	return res, time.Since(start)
}

// Barrier blocks until every rank in the world has entered it, the world
// is aborted, or the Comm's bound context is cancelled (which aborts the
// world — see the package comment on cancellation).
func (c *Comm) Barrier() {
	c.checkCtx()
	if fr := c.w.fault; fr != nil {
		c.faultPoint(fr, FaultBarrier, -1, -1)
	}
	st := &c.w.stats[c.rank]
	st.barriers.Add(1)
	res, wait := c.w.bar.await(c.ctxDone())
	if wait > 0 {
		st.barrierWaitNs.Add(int64(wait))
	}
	switch res {
	case awaitAborted:
		panic(ErrAborted)
	case awaitCtxDone:
		c.cancelled()
	}
}
