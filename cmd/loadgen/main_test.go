package main

import (
	"slices"
	"testing"
	"time"
)

// TestGapSeedsDistinct: every seed draws its own arrival process, not a
// reordering of another seed's gaps.
func TestGapSeedsDistinct(t *testing.T) {
	const n = 50
	sets := make([][]time.Duration, 17)
	for seed := 1; seed < len(sets); seed++ {
		gaps := make([]time.Duration, n)
		for i := range gaps {
			gaps[i] = gap(uint64(seed), i, 25)
		}
		slices.Sort(gaps)
		sets[seed] = gaps
	}
	for a := 1; a < len(sets); a++ {
		for b := a + 1; b < len(sets); b++ {
			if slices.Equal(sets[a], sets[b]) {
				t.Errorf("seeds %d and %d give the same gap multiset", a, b)
			}
		}
	}
}
