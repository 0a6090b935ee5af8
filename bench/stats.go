package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile of sorted by nearest rank.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quietMean is the mean of the smallest quarter of vals (at least one):
// of repeated timings of the same work, the ones nothing interfered with.
func quietMean(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	s = s[:max(1, len(s)/4)]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), so spreads
// computed here match the ones the contract's checker computes. It needs
// at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median; 0 when
// fewer than two values were recorded.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	med := median(vals)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	sp := (q3 - q1) / med
	if sp < 0 {
		sp = -sp
	}
	return sp
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
