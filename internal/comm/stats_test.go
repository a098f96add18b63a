package comm

import (
	"testing"
	"time"
)

// TestStatsP2P checks message and byte accounting on the p2p path.
func TestStatsP2P(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 5, []float64{1, 2, 3}) // 24 bytes
			c.SendInts(1, 6, []int{1, 2})            // 16 bytes
			c.SendString(1, 7, "hello")              // 5 bytes
		} else {
			c.RecvFloat64s(0, 5)
			c.RecvInts(0, 6)
			c.RecvString(0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := w.RankStats(0), w.RankStats(1)
	if r0.Sends != 3 || r0.BytesSent != 45 {
		t.Fatalf("rank 0 sends=%d bytes=%d, want 3/45", r0.Sends, r0.BytesSent)
	}
	if r1.Recvs != 3 || r1.BytesRecv != 45 {
		t.Fatalf("rank 1 recvs=%d bytes=%d, want 3/45", r1.Recvs, r1.BytesRecv)
	}
	if r0.Recvs != 0 || r1.Sends != 0 {
		t.Fatalf("unexpected reverse traffic: %+v %+v", r0, r1)
	}
	total := w.Stats()
	if total.Sends != 3 || total.Recvs != 3 || total.BytesSent != 45 || total.BytesRecv != 45 {
		t.Fatalf("world totals wrong: %+v", total)
	}
}

// TestStatsCollectivesAndBarriers checks collective and barrier
// accounting: one AllReduce is one collective and two barrier entries
// per rank.
func TestStatsCollectivesAndBarriers(t *testing.T) {
	const P = 4
	w, _ := NewWorld(P)
	err := w.Run(func(c *Comm) {
		c.Barrier()
		c.AllReduceFloat64(float64(c.Rank()), OpSum)
		c.AllGatherInt(c.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < P; r++ {
		s := w.RankStats(r)
		if s.Collectives != 2 {
			t.Fatalf("rank %d collectives=%d, want 2", r, s.Collectives)
		}
		if s.BarrierEntries != 5 { // 1 explicit + 2 per collective
			t.Fatalf("rank %d barriers=%d, want 5", r, s.BarrierEntries)
		}
	}
	total := w.Stats()
	if total.Collectives != 2*P || total.BarrierEntries != 5*P {
		t.Fatalf("world totals wrong: %+v", total)
	}
	if total.BarrierWait < 0 {
		t.Fatalf("negative barrier wait %v", total.BarrierWait)
	}
}

// TestStatsResetAndWindows checks ResetStats and Sub-based windowing.
func TestStatsResetAndWindows(t *testing.T) {
	w, _ := NewWorld(2)
	run := func() {
		if err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.SendFloat64s(1, 1, []float64{1})
			} else {
				c.RecvFloat64s(0, 1)
			}
			c.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := w.Stats()
	run()
	window := w.Stats().Sub(before)
	if window.Sends != 1 || window.Recvs != 1 || window.BarrierEntries != 2 {
		t.Fatalf("window stats wrong: %+v", window)
	}
	w.ResetStats()
	if got := w.Stats(); got != (Stats{}) {
		t.Fatalf("stats after reset not zero: %+v", got)
	}
}

// TestStatsAddSub checks the snapshot arithmetic helpers.
func TestStatsAddSub(t *testing.T) {
	a := Stats{Sends: 3, Recvs: 2, BytesSent: 100, BytesRecv: 80, BarrierEntries: 5, BarrierWait: 2 * time.Second, Collectives: 4}
	b := Stats{Sends: 1, Recvs: 1, BytesSent: 60, BytesRecv: 50, BarrierEntries: 2, BarrierWait: time.Second, Collectives: 3}
	if got := a.Sub(b).Add(b); got != a {
		t.Fatalf("Add(Sub) not identity: %+v != %+v", got, a)
	}
}

// TestCommStatsPerRank checks the rank-local view from inside a region.
func TestCommStatsPerRank(t *testing.T) {
	w, _ := NewWorld(3)
	err := w.Run(func(c *Comm) {
		c.AllGatherInt(c.Rank())
		s := c.Stats()
		if s.Collectives != 1 {
			panic("rank-local collectives count wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierWaitMonotone checks that the barrier-wait counter only
// grows: rank-local snapshots taken between collectives never decrease,
// and neither do world totals across regions.
func TestBarrierWaitMonotone(t *testing.T) {
	w, _ := NewWorld(2)
	var prevTotal time.Duration
	for round := 0; round < 3; round++ {
		err := w.Run(func(c *Comm) {
			prev := c.Stats().BarrierWait
			for i := 0; i < 50; i++ {
				c.AllReduceFloat64(1, OpSum)
				cur := c.Stats().BarrierWait
				if cur < prev {
					panic("rank-local BarrierWait decreased")
				}
				prev = cur
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		total := w.Stats().BarrierWait
		if total < prevTotal {
			t.Fatalf("round %d: world BarrierWait decreased: %v < %v", round, total, prevTotal)
		}
		prevTotal = total
	}
}

// TestBarrierWaitOnlyWhenParked checks that only a rank that actually
// parks records wait time: in one two-party barrier the last arrival
// records exactly zero and the other rank a positive wait.
func TestBarrierWaitOnlyWhenParked(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			time.Sleep(10 * time.Millisecond) // usually arrives last
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := w.RankStats(0).BarrierWait, w.RankStats(1).BarrierWait
	if (w0 == 0) == (w1 == 0) || w0 < 0 || w1 < 0 {
		t.Fatalf("want exactly one parked rank with positive wait, got rank 0 %v, rank 1 %v", w0, w1)
	}
}

// TestBarrierWaitZeroOnSizeOneWorld checks that a single rank, always
// the last arrival, never parks and so records no wait at all.
func TestBarrierWaitZeroOnSizeOneWorld(t *testing.T) {
	w, _ := NewWorld(1)
	err := w.Run(func(c *Comm) {
		for i := 0; i < 100; i++ {
			c.Barrier()
			c.AllReduceFloat64(1, OpSum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.BarrierEntries != 300 {
		t.Fatalf("barrier entries = %d, want 300", s.BarrierEntries)
	}
	if s.BarrierWait != 0 {
		t.Fatalf("size-1 world recorded barrier wait %v, want 0", s.BarrierWait)
	}
}
