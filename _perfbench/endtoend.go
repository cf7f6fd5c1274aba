package main

import "time"

// endToEnd collects the figures every workload reports with tracing off.
type endToEnd struct {
	setupS float64
	// done items (tuples or requests) answered ok over timed seconds.
	done  int
	timed time.Duration
	// rate overrides done/timed when set (the stream reports its median
	// per-second rate).
	rate        float64
	invocations int64
	tuples      int64
	// latencies in ms, one per item (per ExplainAll call for batch
	// workloads, whose unit of answer is the batch).
	latencies []float64
	// sloMet of sloSent items answered ok within the workload's limit.
	sloMet, sloSent int
	fidelity        float64
	// peakRSS in MB over the timed phase (measurePeakRSS).
	peakRSS float64
}

// fill sets every end-to-end metric on o.
func (e endToEnd) fill(o *outcome) {
	o.set("setup_s", e.setupS, "s")
	rate := e.rate
	if rate == 0 {
		rate = ratio(float64(e.done), e.timed.Seconds())
	}
	o.set("tuples_per_s", rate, "1/s")
	o.set("invocations_per_tuple", ratio(float64(e.invocations), float64(e.tuples)), "calls")
	p50 := median(e.latencies)
	o.set("latency_p50_ms", p50, "ms")
	// A "tail" below p90 is no tail: with fewer than 100 samples (the
	// batch workloads' calls) the slot reports the slowest sample.
	if t, ok := highestTail(e.latencies, 99); ok && t.Pct >= 90 {
		o.set("latency_p99_ms", t.Value, "ms")
		o.note("latency: p50 %.3f ms, p%.4g %.3f ms over %d samples", p50, t.Pct, t.Value, t.N)
		if t.Pct < 99 {
			o.note("latency: only %d samples, so latency_p99_ms reports p%.4g", t.N, t.Pct)
		}
	} else {
		o.set("latency_p99_ms", percentile(e.latencies, 100), "ms")
		o.note("latency: p50 %.3f ms; %d samples are too few for a p90 or higher with %d beyond it, so latency_p99_ms reports the maximum",
			p50, len(e.latencies), tailBeyond)
	}
	o.set("slo_attainment", ratio(float64(e.sloMet), float64(e.sloSent)), "share")
	o.set("fidelity", e.fidelity, "score")
	o.set("peak_rss_mb", e.peakRSS, "MB")
}
