package main

import (
	"math"
	"math/rand"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs is not modified. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two middle samples for an
// even count). It returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// bootstrapCI returns the percentile-bootstrap 95% interval of stat over
// xs, resampled B times from a generator seeded with seed (so the
// interval is reproducible for a fixed benchmark seed).
func bootstrapCI(xs []float64, stat func([]float64) float64, seed int64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	const B = 2000
	rng := rand.New(rand.NewSource(seed))
	est := make([]float64, B)
	re := make([]float64, len(xs))
	for b := range est {
		for i := range re {
			re[i] = xs[rng.Intn(len(xs))]
		}
		est[b] = stat(re)
	}
	sort.Float64s(est)
	return est[int(0.025*B)], est[int(0.975*B)-1]
}

func p99(xs []float64) float64 { return percentile(xs, 99) }

// windowed applies stat to the samples of each cycle of a library
// workload and returns the quiet estimate over the cycles, with the
// total sample count.
func windowed(windows [][]float64, stat func([]float64) float64) (float64, int) {
	var per []float64
	n := 0
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, stat(w))
			n += len(w)
		}
	}
	return quiet(per), n
}

// quiet is the benchmark's estimate over the cycles of a run: their
// lower quartile (nearest rank). Pacing (speed.go) takes out the host's
// throttling of the cores, but not the episodes, seconds to a minute
// long, in which other guests contend for memory or for the second vCPU
// and a warm solve takes up to 2.5 times as long with the pace reading
// unchanged. Such episodes only ever slow a cycle, so the quietest
// quarter of the cycles tracks the program; a change to the program
// moves every cycle alike.
func quiet(xs []float64) float64 { return percentile(xs, 25) }
