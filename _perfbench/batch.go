package main

import (
	"fmt"
	"runtime"
	"time"

	"shahin/internal/core"
	"shahin/internal/explain/anchor"
	"shahin/internal/explain/shap"
	"shahin/internal/rf"
)

// explainerSeed fixes the explainers' own randomness (sampling,
// perturbation, bandits): it belongs to the system under test, not to
// the workload.
const explainerSeed = 3

// batchSpec fixes one batch workload.
type batchSpec struct {
	name  string
	opts  core.Options
	delay time.Duration // per-call classifier delay (rf.Delayed)
	batch int           // tuples per ExplainAll call
	audit int           // leading tuples checked against core.Sequential
	// fidelity scores the audited explanations against the baseline's.
	fidelity func(got, want []core.Explanation) float64
}

// runBatchSHAP: KernelSHAP at the real forest cost. The pool is built
// once per call and then only read, so non-classifier explain work
// (perturbation, encoding, surrogate solve, pool retrieval) dominates
// and mining is nearly free.
func runBatchSHAP(cfg runConfig, traced bool) (*outcome, error) {
	return runBatch(cfg, traced, batchSpec{
		name: "batch-shap",
		opts: core.Options{
			Explainer: core.SHAP,
			SHAP:      shap.Config{NumSamples: 256, BaseSamples: 50},
			Seed:      explainerSeed,
		},
		batch:    2000,
		audit:    800,
		fidelity: attributionTau,
	})
}

// runBatchAnchor: Anchor behind a 25µs per-call delay, the paper's cost
// regime, where invocation count and reuse decide the time.
func runBatchAnchor(cfg runConfig, traced bool) (*outcome, error) {
	return runBatch(cfg, traced, batchSpec{
		name: "batch-anchor-paper",
		opts: core.Options{
			Explainer: core.Anchor,
			Anchor:    anchor.Config{MaxPulls: 2000, BatchPulls: 25},
			Seed:      explainerSeed,
		},
		delay:    25 * time.Microsecond,
		batch:    200,
		audit:    200,
		fidelity: sameRule,
	})
}

// batchArm is one way of running calls: a Batch over a classifier and,
// for the traced arm, the meter wrapping that classifier and the tracer.
type batchArm struct {
	b  *core.Batch
	m  *meter
	tr *tracer
}

// newBatchArm builds an arm over cls, or over m when m is set.
func newBatchArm(e *env, cls rf.Classifier, m *meter, tr *tracer, spec batchSpec) (batchArm, error) {
	if m != nil {
		cls = m
	}
	b, err := core.NewBatch(e.stats, cls, spec.opts)
	return batchArm{b: b, m: m, tr: tr}, err
}

// batchCall is one timed ExplainAll call.
type batchCall struct {
	tuples int
	dur    time.Duration
	rep    core.Report
	rf     meterSnap
}

// batchPhase is the product of one arm's calls.
type batchPhase struct {
	calls []batchCall
	// audited holds the leading spec.audit explanations and their
	// tuples, in call order.
	audited       []core.Explanation
	auditedTuples [][]float64
}

// callTuples returns call k's tuples: a fresh, seed-determined batch.
func callTuples(e *env, spec batchSpec, seed int64, k int) ([][]float64, error) {
	return e.tuples(spec.batch, seed*1_000_003+int64(k))
}

// runBatchPhase calls ExplainAll on successive batches for about dur,
// call k on arms[k mod len(arms)], and returns each arm's calls. After
// the first call it starts none that would, at the previous call's
// pace, end more than half a call past dur. Each call is a batch job of
// its own: garbage from the previous one is collected before it starts,
// outside its timing, so neither its time nor the peak RSS depends on
// where the collector stood when the previous call ended.
func runBatchPhase(o *outcome, e *env, spec batchSpec, seed int64, dur time.Duration, arms ...batchArm) ([]*batchPhase, error) {
	phs := make([]*batchPhase, len(arms))
	for i := range phs {
		phs[i] = &batchPhase{}
	}
	start := time.Now()
	var last time.Duration
	for k := 0; k == 0 || time.Since(start)+last/2 < dur; k++ {
		runtime.GC()
		ph := phs[k%len(arms)]
		call, err := arms[k%len(arms)].call(o, e, spec, seed, k, ph)
		if err != nil {
			return nil, err
		}
		ph.calls = append(ph.calls, call)
		last = call.dur
	}
	return phs, nil
}

// call runs call k on the arm, checks its answers, and adds its leading
// tuples to ph's audit set. On a metered arm it checks Report.Invocations
// against the meter and records a span.
func (arm batchArm) call(o *outcome, e *env, spec batchSpec, seed int64, k int, ph *batchPhase) (batchCall, error) {
	tuples, err := callTuples(e, spec, seed, k)
	if err != nil {
		return batchCall{}, err
	}
	var before meterSnap
	if arm.m != nil {
		before = arm.m.snapshot()
	}
	t0 := time.Now()
	res, err := arm.b.ExplainAll(tuples)
	t1 := time.Now()
	if err != nil {
		return batchCall{}, fmt.Errorf("%s call %d: %w", spec.name, k, err)
	}
	arm.tr.record("explain_all", fmt.Sprintf("call-%d", k), t0, t1)
	o.attempted += len(tuples)
	o.failed += checkExplanations(o, fmt.Sprintf("call %d", k), res.Explanations, len(tuples))
	call := batchCall{tuples: len(tuples), dur: t1.Sub(t0), rep: res.Report}
	if arm.m != nil {
		call.rf = arm.m.snapshot().sub(before)
		if call.rf.calls != res.Report.Invocations {
			o.violate("call %d: wrapper counted %d Predict calls, Report.Invocations is %d", k, call.rf.calls, res.Report.Invocations)
		}
	}
	if need := spec.audit - len(ph.audited); need > 0 {
		need = min(need, len(tuples))
		ph.audited = append(ph.audited, res.Explanations[:need]...)
		ph.auditedTuples = append(ph.auditedTuples, tuples[:need]...)
	}
	return call, nil
}

func runBatch(cfg runConfig, traced bool, spec batchSpec) (*outcome, error) {
	e, _, setupS, err := setupEnv[struct{}](nil)
	if err != nil {
		return nil, err
	}
	var bare rf.Classifier = e.forest
	if spec.delay > 0 {
		bare = rf.NewDelayed(e.forest, spec.delay)
	}
	plain, err := newBatchArm(e, bare, nil, nil, spec)
	if err != nil {
		return nil, err
	}
	if !traced {
		o := &outcome{}
		var phs []*batchPhase
		rss, err := measurePeakRSS(func() (err error) {
			phs, err = runBatchPhase(o, e, spec, cfg.seed, cfg.seconds, plain)
			return err
		})
		if err != nil {
			return nil, err
		}
		fid, err := audit(o, e, plain, spec, cfg.seed, phs[0])
		if err != nil {
			return nil, err
		}
		out := batchEndToEnd(phs[0], setupS, fid)
		out.peakRSS = rss
		out.fill(o)
		return o, nil
	}

	// Traced: calls alternate between the bare classifier and the
	// metered one, so drift in the machine's speed reaches both arms
	// alike; the difference per tuple is the tracing overhead.
	o := newLayerOutcome()
	tr := newTracer()
	m := newMeter(bare)
	traceArm, err := newBatchArm(e, bare, m, tr, spec)
	if err != nil {
		return nil, err
	}
	m.on.Store(true)
	tr.on.Store(true)
	phs, err := runBatchPhase(o, e, spec, cfg.seed, cfg.seconds, plain, traceArm)
	if err != nil {
		return nil, err
	}
	if len(phs[1].calls) == 0 {
		return nil, fmt.Errorf("%s: the run ended before a traced call", spec.name)
	}
	t := batchLayers(o, spec, phs[1])
	t.print(o)
	t.check(o)
	overhead(o, perTupleMS(phs[0]), perTupleMS(phs[1]), "ms/tuple")
	if cfg.spansOut != "" {
		if err := tr.dump(cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// batchLayers sets the per-layer metrics of a traced arm's calls and
// returns its layer table.
func batchLayers(o *outcome, spec batchSpec, ph *batchPhase) *layerTable {
	var tot coreTotals
	e2e := 0.0
	for _, c := range ph.calls {
		tot.addReport(c.rep)
		tot.rf.calls += c.rf.calls
		tot.rf.busy += c.rf.busy
		e2e += ms(c.dur)
	}
	tot.apportionRFPool()
	items := float64(tot.tuples)
	tot.fillCore(o, items)
	o.set("core.frequent_itemsets", float64(ph.calls[0].rep.FrequentItemsets), "count")
	o.set("fim.mines", float64(len(ph.calls)), "count")
	t := &layerTable{title: spec.name + ", ExplainAll calls", unit: "ms/tuple", e2e: e2e / items}
	tot.coreRows(t, 1/items)
	o.set("other.self_ms", t.other(), "ms/item")
	return t
}

// perTupleMS is an arm's wall time per tuple.
func perTupleMS(ph *batchPhase) float64 {
	var d time.Duration
	n := 0
	for _, c := range ph.calls {
		d += c.dur
		n += c.tuples
	}
	return ms(d) / float64(n)
}

// batchEndToEnd derives the end-to-end figures of an untraced phase.
// A batch answers as a whole, so its latency sample is one per call.
// Batch jobs carry no latency limit: their slo_attainment is the share
// of attempted tuples answered ok.
func batchEndToEnd(ph *batchPhase, setupS, fidelity float64) endToEnd {
	out := endToEnd{setupS: setupS, fidelity: fidelity}
	for _, c := range ph.calls {
		out.done += c.rep.Tuples - c.rep.Failed - c.rep.Degraded
		out.timed += c.dur
		out.latencies = append(out.latencies, ms(c.dur))
		out.invocations += c.rep.Invocations
		out.tuples += int64(c.tuples)
		out.sloSent += c.tuples
	}
	out.sloMet = out.done
	return out
}

// audit explains the audited tuples with core.Sequential and scores
// the batch's answers against it. A run too slow to reach them all in
// its timed calls explains the next batches untimed until it has, so
// the audit subset never depends on speed. The baseline runs on the bare
// forest: the calibrated delay changes cost, never a label.
func audit(o *outcome, e *env, arm batchArm, spec batchSpec, seed int64, ph *batchPhase) (float64, error) {
	for k := len(ph.calls); len(ph.audited) < spec.audit; k++ {
		if _, err := arm.call(o, e, spec, seed, k, ph); err != nil {
			return 0, err
		}
	}
	base, err := core.Sequential(e.stats, e.forest, spec.opts, ph.auditedTuples)
	if err != nil {
		return 0, fmt.Errorf("sequential audit: %w", err)
	}
	checkExplanations(o, "sequential audit", base.Explanations, len(ph.auditedTuples))
	return spec.fidelity(ph.audited, base.Explanations), nil
}
