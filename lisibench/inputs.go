package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"
)

// Input streams. Every generated value is a pure function of (seed,
// stream, op, global index), so a run's inputs depend only on --seed and
// never on the rank count, the timing or the order ranks ask for them.
const (
	streamKrylov = iota + 1
	streamDirect
	streamServeRHS
	streamServeMix
	streamServeArrivals
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a uniform value in [0, 1) for the given coordinates.
func unit(seed int64, stream, op, i int) float64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(stream)<<56 ^ uint64(op))
	h = splitmix64(h ^ uint64(i))
	return float64(h>>11) / (1 << 53)
}

// fillRHS writes right-hand-side entries start..start+len(dst)-1 of the
// op-th seeded vector of a stream: uniform in [-1, 1).
func fillRHS(dst []float64, start int, seed int64, stream, op int) {
	for k := range dst {
		dst[k] = 2*unit(seed, stream, op, start+k) - 1
	}
}

// rng is a small seeded generator for schedules (operator picks,
// exponential gaps); it is deterministic for a seed and a stream.
type rng struct{ state uint64 }

func newRNG(seed int64, stream int) *rng {
	return &rng{state: splitmix64(uint64(seed) ^ uint64(stream)<<48)}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return splitmix64(r.state)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp draws an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

// inputDigest hashes a fixed sample of every input a workload generates
// for a seed: the first right-hand sides of the library workloads and
// the serve-mixed request schedule with its bodies. Equal seeds give
// equal digests; the tests use it to show inputs depend only on the seed.
func inputDigest(workload string, seed int64) (string, error) {
	h := sha256.New()
	var buf [8]byte
	putVec := func(v []float64) {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	switch workload {
	case wlKrylov:
		v := make([]float64, krylovGrid*krylovGrid)
		for op := 0; op < 3; op++ {
			fillRHS(v, 0, seed, streamKrylov, op)
			putVec(v)
		}
	case wlDirect:
		v := make([]float64, directGrid*directGrid)
		for op := 0; op < 3; op++ {
			fillRHS(v, 0, seed, streamDirect, op)
			putVec(v)
		}
	case wlServe:
		ops, err := newServeOps()
		if err != nil {
			return "", err
		}
		sched, err := newScheduler(ops, seed).schedule(0, serveRate, 2*time.Second)
		if err != nil {
			return "", err
		}
		for _, r := range sched {
			binary.LittleEndian.PutUint64(buf[:], uint64(r.at))
			h.Write(buf[:])
			h.Write(r.body)
		}
	default:
		return "", errUnknownWorkload(workload)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
