package main

import (
	"sort"
	"time"

	"repro/internal/sched"
)

// splitmix64 is a full-avalanche 64-bit mixer: every input bit flips about
// half of the output bits, so nearby seeds give unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// stream is a counter-based generator keyed by a mixed seed. Every
// workload input is drawn from one, never from the raw --seed argument
// (see the package doc for the two upstream generators that collide).
type stream struct {
	key uint64
	n   uint64
}

func newStream(seed uint64, purpose uint64) *stream {
	return &stream{key: splitmix64(splitmix64(seed) ^ splitmix64(purpose))}
}

func (s *stream) next() uint64 {
	s.n++
	return splitmix64(s.key + s.n*0x9E3779B97F4A7C15)
}

// float returns a uniform value in [0, 1).
func (s *stream) float() float64 { return float64(s.next()>>11) / float64(1<<53) }

// intn returns a uniform value in [0, n).
func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// perm returns a uniform permutation of [0, n).
func (s *stream) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Stream purposes: no two inputs of one workload share a stream.
const (
	purposeTasks = iota + 1
	purposeGaps
	purposeTitles
	purposeOrder
	purposeProbe
)

// taskMix returns the serve_mixed task list: n tasks sampled once by
// sched.GenerateTasks over all 15 videos, crf 10-44, refs 1-8, ultrafast
// to slow, then put in a seeded order. The multiset is the same for every
// seed: the tail is set by the few heaviest tasks, and drawing them anew
// per seed moved p99 sojourn by ~25% between seeds.
func taskMix(seed uint64, n int) []sched.Task {
	base := sched.GenerateTasks(n, mixSeed)
	out := make([]sched.Task, n)
	for i, j := range newStream(seed, purposeTasks).perm(n) {
		out[i] = base[j]
	}
	return out
}

// mixSeed fixes the serve_mixed task multiset; any value would do.
const mixSeed = 0x9E3779B97F4A7C15

// arrivals returns n open-loop send offsets over a window of length T:
// n sorted uniform draws, which is a Poisson process conditioned on n
// arrivals in T. Fixing n keeps the offered load the same on every seed,
// so throughput does not inherit the count's sampling noise.
func arrivals(seed uint64, n int, T time.Duration) []time.Duration {
	s := newStream(seed, purposeGaps)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(s.float() * float64(T))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
