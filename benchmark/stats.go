package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// quantile returns the q-quantile of raw samples by linear interpolation
// between order statistics (Hyndman-Fan type 7). Percentiles are always
// taken from raw per-request samples: obs.Histogram's power-of-two buckets
// allow up to 2x quantile error.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the highest quantile, capped at want, that still has at least
// minTail of n samples beyond it; the median when no tail quantile does.
func tailQ(n int, want float64) float64 {
	return math.Max(0.5, math.Min(want, 1-float64(minTail)/float64(n)))
}

// latency summarizes a raw sample set as its median and the highest
// percentile up to p99 the sample supports, labelled with that percentile
// and the sample count.
type latency struct {
	P50, Tail float64
	TailQ     float64
	N         int
}

func summarize(xs []float64) latency {
	q := tailQ(len(xs), 0.99)
	return latency{P50: median(xs), Tail: quantile(xs, q), TailQ: q, N: len(xs)}
}

func (l latency) String() string {
	return fmt.Sprintf("p50 %.3f ms, p%.4g %.3f ms (n=%d)", l.P50, 100*l.TailQ, l.Tail, l.N)
}
