package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer samples is one outlier, not a tail.
const tailBeyond = 10

// tail is a percentile read off a sample: the percentile reached, its
// value, and how many samples it rests on.
type tail struct {
	Pct   float64 // e.g. 99 for p99
	Value float64
	N     int
}

// highestTail returns the highest percentile, capped at want, that
// leaves at least tailBeyond samples above it, together with the sample
// count. With n samples that is the value at 1-based rank n-tailBeyond,
// i.e. percentile 100·(n-tailBeyond)/n. ok is false when the sample has
// tailBeyond or fewer values, so no percentile qualifies.
func highestTail(samples []float64, want float64) (t tail, ok bool) {
	n := len(samples)
	if n <= tailBeyond {
		return tail{N: n}, false
	}
	s := sortedCopy(samples)
	if pct := 100 * float64(n-tailBeyond) / float64(n); pct < want {
		return tail{Pct: pct, Value: s[n-tailBeyond-1], N: n}, true
	}
	return tail{Pct: want, Value: rankValue(s, want), N: n}, true
}

// percentile returns the nearest-rank percentile p (0–100] of samples,
// 0 for an empty sample.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return rankValue(sortedCopy(samples), p)
}

// rankValue reads nearest-rank percentile p from an ascending slice.
func rankValue(sorted []float64, p float64) float64 {
	// The epsilon keeps p·n/100 landing a hair above an integer (0.99·1000
	// in binary) from skipping a rank.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

func sum(samples []float64) float64 {
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowRate is the median, over the whole windows of a run, of items
// finished per second in each: a neighbour that stalls the machine for
// a moment moves one window, not the figure. ends are the items' finish
// times from the start of the run.
func windowRate(ends []time.Duration, window time.Duration) float64 {
	if len(ends) == 0 {
		return 0
	}
	n := int(ends[len(ends)-1] / window)
	if n == 0 {
		return float64(len(ends)) / ends[len(ends)-1].Seconds()
	}
	perWindow := make([]float64, n)
	for _, e := range ends {
		if k := int(e / window); k < n {
			perWindow[k]++
		}
	}
	for i := range perWindow {
		perWindow[i] /= window.Seconds()
	}
	return median(perWindow)
}
