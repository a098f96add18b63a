package main

import (
	"time"

	"repro/internal/comm"
)

// The end-to-end timings are reported at reference speed. On the shared
// virtual machine the benchmark was built on, the speed of a core changes
// by up to 1.9× within seconds and stays changed for minutes, whatever
// the program does: a fixed loop of floating-point adds took 0.92 to
// 2.09 ms in one 90-second probe, with the same reading in thread CPU
// time and no steal, so the host throttles the cores rather than taking
// them away. Raw wall times of the same code then differed by 40%
// between runs.
//
// So each timed sample is divided by the machine's pace, measured right
// beside it: the time of a fixed reference kernel ÷ refNominal. A sample
// taken while the host runs the cores at half speed reads pace ≈ 2 and
// is halved. In a 90-second probe of direct-resolve's warm solve, the
// coefficient of variation over 2-second windows was 0.20 for the raw
// time and 0.037 for the paced time. The kernel is the benchmark's own
// code, so a change to the program moves paced times as it moves wall
// times; only the host's speed is taken out.

// refNominal is the reference kernel's time at full speed on the
// 2-vCPU Xeon virtual machine the benchmark was built on (0.097–0.10 ms
// in its fast periods). A paced time is the time the sample would have
// taken at that speed.
const refNominal = 100e-6 // seconds

var (
	refBuf  [1 << 14]float64
	refSink float64
)

// refKernel times a chain of dependent floating-point adds over a
// 128 KiB array: core work only, no allocation, no call into the program.
func refKernel() float64 {
	t := time.Now()
	s := 0.0
	for r := 0; r < 8; r++ {
		for i, v := range refBuf {
			s += v*1.0000001 + float64(i)
		}
	}
	refSink = s
	return time.Since(t).Seconds()
}

// pace is the machine's current slowdown against full speed: the median
// of three reference-kernel runs ÷ refNominal, averaged over the ranks
// (collective; every rank gets the same value). Every rank runs the
// kernel at once, so no core idles between timed samples: an idle vCPU
// that the host hands to another guest wakes late, which would lengthen
// the next sample's tail.
func pace(c *comm.Comm) float64 {
	x, y, z := refKernel(), refKernel(), refKernel()
	p := max(min(x, y), min(max(x, y), z)) / refNominal
	return c.AllReduceFloat64(p, comm.OpSum) / float64(c.Size())
}
