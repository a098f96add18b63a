// Fixture for the spmddet analyzer: comm calls and floating-point folds
// ordered by map iteration and goroutine-shared float accumulation
// must be flagged; the sorted-keys idiom, integer folds, key collection
// and the per-slot partials idiom must not.
package spmddet

import (
	"sort"

	"repro/internal/comm"
)

func mapOrderSend(c *comm.Comm, byPeer map[int][]float64) {
	for peer, data := range byPeer {
		c.SendFloat64sPooled(peer, 0, data) // want "comm call Comm.SendFloat64sPooled is issued in map iteration order"
	}
}

// sendTo is the helper the interprocedural case looks through.
func sendTo(c *comm.Comm, peer int, data []float64) {
	c.SendFloat64sPooled(peer, 0, data)
}

func mapOrderHelper(c *comm.Comm, byPeer map[int][]float64) {
	for peer, data := range byPeer {
		sendTo(c, peer, data) // want "call to sendTo inside a map range transitively performs comm"
	}
}

// sliceOrderHelper is the legal interprocedural shape: the same helper,
// iterated in deterministic slice order.
func sliceOrderHelper(c *comm.Comm, peers []int, data []float64) {
	for _, p := range peers {
		sendTo(c, p, data)
	}
}

// sortedKeys is the legal shape: collect, sort, iterate the slice.
func sortedKeys(c *comm.Comm, byPeer map[int][]float64) {
	peers := make([]int, 0, len(byPeer))
	for p := range byPeer {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		c.SendFloat64sPooled(p, 0, byPeer[p])
	}
}

func mapFloatFold(weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w // want "floating-point accumulation into total in map iteration order"
	}
	return total
}

func mapSpelledFold(weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total = total + w // want "floating-point accumulation into total in map iteration order"
	}
	return total
}

// mapIntFold is legal: integer addition is associative bit-for-bit.
func mapIntFold(counts map[string]int) int {
	n := 0
	for _, v := range counts {
		n += v
	}
	return n
}

// loopLocalFold is legal: the accumulator lives and dies inside one
// iteration, so cross-iteration order never matters.
func loopLocalFold(rows map[int][]float64) map[int]float64 {
	out := make(map[int]float64, len(rows))
	for k, row := range rows {
		s := 0.0
		for _, v := range row {
			s += v
		}
		out[k] = s
	}
	return out
}

func goroutineSharedFold(parts [][]float64) float64 {
	var sum float64
	done := make(chan struct{})
	for _, p := range parts {
		p := p
		go func() {
			for _, v := range p {
				sum += v // want "goroutine accumulates into shared float sum"
			}
			done <- struct{}{}
		}()
	}
	for range parts {
		<-done
	}
	return sum
}

// goroutinePerSlot is the supported idiom: each goroutine owns one slot,
// the fold over slots happens in index order after the join.
func goroutinePerSlot(parts [][]float64) float64 {
	partials := make([]float64, len(parts))
	done := make(chan struct{})
	for i, p := range parts {
		i, p := i, p
		go func() {
			for _, v := range p {
				partials[i] += v
			}
			done <- struct{}{}
		}()
	}
	for range parts {
		<-done
	}
	total := 0.0
	for _, v := range partials {
		total += v
	}
	return total
}
