package main

import (
	"fmt"
	"time"

	"shahin/internal/core"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/rf"
)

// The stream workload explains tuples one at a time in laps, each lap a
// fresh draw sorted by one categorical attribute, so the frequent
// itemsets shift as a lap moves from one value to the next and jump back
// when the next lap starts: re-mining every StreamRecompute tuples,
// negative-border promotion and pool writes do real work. A lap is short
// enough that a run passes through every value more than once. The
// repository budget sits below the pool's working set, so LRU eviction
// runs (the regime of the paper's Figure 7).
const (
	streamLap        = 2000
	streamLaps       = 25 // far more than a run explains
	streamCacheBytes = 1 << 20
	// streamLimit is the per-tuple latency limit behind slo_attainment.
	streamLimit = 10 * time.Millisecond
	// The audit takes streamAudit tuples at a fixed stride, starting
	// after the first re-mines so pooled answers are what is scored.
	streamAuditFrom   = 300
	streamAuditStride = 10
	streamAudit       = 300
)

var streamOpts = core.Options{
	Explainer:  core.LIME,
	LIME:       lime.Config{NumSamples: 400},
	Seed:       explainerSeed,
	CacheBytes: streamCacheBytes,
}

// streamPhase is the product of one timed stream phase.
type streamPhase struct {
	latencies []float64       // ms per Explain call
	ends      []time.Duration // when each call returned, from the phase start
	inLimit   int             // tuples answered ok within streamLimit
	rep       core.Report
	mines     int
	audited   []core.Explanation
}

// driftAttr picks the categorical attribute with the most values: the
// longest drift.
func driftAttr(st *dataset.Stats) int {
	best, bestBins := 0, -1
	for _, a := range st.Schema.CategoricalIdx() {
		if n := st.NumBins(a); n > bestBins {
			best, bestBins = a, n
		}
	}
	return best
}

func isAudited(i int) bool {
	return i >= streamAuditFrom && (i-streamAuditFrom)%streamAuditStride == 0 &&
		(i-streamAuditFrom)/streamAuditStride < streamAudit
}

// auditTuples returns the audited tuples of a stream order.
func auditTuples(tuples [][]float64) [][]float64 {
	var out [][]float64
	for i := range tuples {
		if isAudited(i) {
			out = append(out, tuples[i])
		}
	}
	return out
}

// streamOrder is the run's tuple order: streamLaps seed-determined
// draws of streamLap tuples, each sorted by the drift attribute.
func streamOrder(e *env, seed int64) ([][]float64, error) {
	a := driftAttr(e.stats)
	var out [][]float64
	for lap := 0; lap < streamLaps; lap++ {
		raw, err := e.tuples(streamLap, seed*64+int64(lap))
		if err != nil {
			return nil, err
		}
		out = append(out, e.sortedBy(raw, a)...)
	}
	return out, nil
}

// streamArm is one stream and, in traced runs, the tracer; ph collects
// what it did.
type streamArm struct {
	s  *core.Stream
	tr *tracer
	ph streamPhase
}

func newStreamArm(e *env, cls rf.Classifier, m *meter, tr *tracer) (*streamArm, error) {
	if m != nil {
		cls = m
	}
	s, err := core.NewStream(e.stats, cls, streamOpts)
	return &streamArm{s: s, tr: tr}, err
}

// explain runs one tuple through the arm.
func (a *streamArm) explain(o *outcome, i int, t []float64, start time.Time) error {
	t0 := time.Now()
	exp, err := a.s.Explain(t)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("stream tuple %d: %w", i, err)
	}
	ph := &a.ph
	a.tr.record("explain", fmt.Sprintf("tuple-%d", i), t0, t1)
	ph.latencies = append(ph.latencies, ms(t1.Sub(t0)))
	ph.ends = append(ph.ends, t1.Sub(start))
	o.attempted++
	bad := checkExplanations(o, fmt.Sprintf("stream tuple %d", i), []core.Explanation{exp}, 1)
	o.failed += bad
	if bad == 0 && t1.Sub(t0) <= streamLimit {
		ph.inLimit++
	}
	if isAudited(i) {
		ph.audited = append(ph.audited, exp)
	}
	return nil
}

// runStreamPhase explains the tuples in order for dur, each tuple on
// every arm in turn, so the arms do the same work under the same drift
// in the machine's speed.
func runStreamPhase(o *outcome, tuples [][]float64, dur time.Duration, arms ...*streamArm) error {
	start := time.Now()
	i := 0
	for ; i < len(tuples) && time.Since(start) < dur; i++ {
		for _, a := range arms {
			if err := a.explain(o, i, tuples[i], start); err != nil {
				return err
			}
		}
	}
	if i == len(tuples) {
		o.violate("stream ran out of its %d tuples before %s passed", len(tuples), dur)
	}
	for _, a := range arms {
		a.ph.rep = a.s.Report()
		a.ph.mines = a.s.Mines()
	}
	return nil
}

func runStreamLIME(cfg runConfig, traced bool) (*outcome, error) {
	e, _, setupS, err := setupEnv[struct{}](nil)
	if err != nil {
		return nil, err
	}
	tuples, err := streamOrder(e, cfg.seed)
	if err != nil {
		return nil, err
	}
	plain, err := newStreamArm(e, e.forest, nil, nil)
	if err != nil {
		return nil, err
	}
	if !traced {
		o := &outcome{}
		rss, err := measurePeakRSS(func() error { return runStreamPhase(o, tuples, cfg.seconds, plain) })
		if err != nil {
			return nil, err
		}
		ph := &plain.ph
		fid, err := streamAuditScore(o, e, tuples, plain)
		if err != nil {
			return nil, err
		}
		out := endToEnd{
			setupS:      setupS,
			rate:        windowRate(ph.ends, time.Second),
			invocations: ph.rep.Invocations,
			tuples:      int64(len(ph.latencies)),
			latencies:   ph.latencies,
			sloSent:     len(ph.latencies),
			sloMet:      ph.inLimit,
			fidelity:    fid,
			peakRSS:     rss,
		}
		out.fill(o)
		return o, nil
	}

	// Traced: a bare stream and a metered one take every tuple in turn;
	// the difference per tuple is the tracing overhead.
	o := newLayerOutcome()
	m := newMeter(e.forest)
	tr := newTracer()
	metered, err := newStreamArm(e, e.forest, m, tr)
	if err != nil {
		return nil, err
	}
	m.on.Store(true)
	tr.on.Store(true)
	if err := runStreamPhase(o, tuples, cfg.seconds, plain, metered); err != nil {
		return nil, err
	}
	ph := &metered.ph
	if got := m.snapshot().calls; got != ph.rep.Invocations {
		o.violate("stream: wrapper counted %d Predict calls, Report.Invocations is %d", got, ph.rep.Invocations)
	}
	tot := coreTotals{rf: m.snapshot()}
	tot.addReport(ph.rep)
	tot.apportionRFPool()
	items := float64(len(ph.latencies))
	tot.fillCore(o, items)
	o.set("core.frequent_itemsets", float64(ph.rep.FrequentItemsets), "count")
	o.set("fim.mines", float64(ph.mines), "count")
	t := &layerTable{title: "stream-lime-drift, Explain calls", unit: "ms/tuple", e2e: sum(ph.latencies) / items}
	tot.coreRows(t, 1/items)
	t.print(o)
	t.check(o)
	o.set("other.self_ms", t.other(), "ms/item")
	overhead(o, mean(plain.ph.latencies), mean(ph.latencies), "ms/tuple")
	if cfg.spansOut != "" {
		if err := tr.dump(cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// streamAuditScore explains the audited tuples with core.Sequential and
// scores the stream's answers against it. A run too slow to reach them
// all in its timed phase explains on, untimed, until it has, so the
// audit subset never depends on speed.
func streamAuditScore(o *outcome, e *env, tuples [][]float64, a *streamArm) (float64, error) {
	ph := &a.ph
	for i := len(ph.latencies); len(ph.audited) < streamAudit; i++ {
		exp, err := a.s.Explain(tuples[i])
		if err != nil {
			return 0, fmt.Errorf("stream tuple %d: %w", i, err)
		}
		o.attempted++
		o.failed += checkExplanations(o, fmt.Sprintf("stream tuple %d", i), []core.Explanation{exp}, 1)
		if isAudited(i) {
			ph.audited = append(ph.audited, exp)
		}
	}
	base, err := core.Sequential(e.stats, e.forest, streamOpts, auditTuples(tuples))
	if err != nil {
		return 0, fmt.Errorf("sequential audit: %w", err)
	}
	checkExplanations(o, "sequential audit", base.Explanations, streamAudit)
	return attributionTau(ph.audited, base.Explanations), nil
}
