package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so the helper must sort
	}
	return out
}

func TestHighestTailLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		want    float64 // value reported
		pct     float64
		wantsOK bool
	}{
		{n: 5, wantsOK: false},
		{n: 10, wantsOK: false},
		{n: 11, want: 1, pct: 100.0 / 11, wantsOK: true},
		{n: 100, want: 90, pct: 90, wantsOK: true},
		{n: 1000, want: 990, pct: 99, wantsOK: true},
		{n: 5000, want: 4950, pct: 99, wantsOK: true}, // capped at the requested p99
	}
	for _, c := range cases {
		got, ok := highestTail(seq(c.n), 99)
		if ok != c.wantsOK {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.wantsOK)
		}
		if got.N != c.n {
			t.Errorf("n=%d: sample count %d", c.n, got.N)
		}
		if !ok {
			continue
		}
		if got.Value != c.want || got.Pct != c.pct {
			t.Errorf("n=%d: got p%v=%v, want p%v=%v", c.n, got.Pct, got.Value, c.pct, c.want)
		}
		beyond := 0
		for _, v := range seq(c.n) {
			if v > got.Value {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(10)
	if got := median(s); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(s, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}
