package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above the order statistic
// reported as the latency tail.
const minBeyond = 10

// tail is the highest percentile of a latency sample that still has at
// least minBeyond samples beyond it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	// Beyond is the number of samples strictly above the reported rank.
	Beyond int `json:"beyond"`
}

// tailLatency picks, from the ascending order statistics of xs, the
// highest rank with at least minBeyond samples after it and reports it
// with its percentile (the share of samples at or below that rank).
// With too few samples for any rank to qualify, it reports the median
// and says so through Beyond < minBeyond.
func tailLatency(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	j := n - 1 - minBeyond
	if j < 0 {
		return tail{Value: median(s), Percentile: 50, Samples: n, Beyond: n / 2}
	}
	return tail{
		Value:      s[j],
		Percentile: 100 * float64(j+1) / float64(n),
		Samples:    n,
		Beyond:     n - 1 - j,
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles returns the first and third quartile of xs computed as
// Python's statistics.quantiles(xs, n=4) does (the default "exclusive"
// method), so spreads printed here match the ones a Python script
// computes from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	const groups = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / groups
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*groups
		return (s[j-1]*float64(groups-delta) + s[j]*float64(delta)) / groups
	}
	return at(1), at(3), true
}
