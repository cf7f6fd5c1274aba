package main

import (
	"time"

	"shahin/internal/core"
	"shahin/internal/metrics"
)

// perLayerUnits lists every per-layer metric with its unit. A traced
// run prints all of them; a layer the workload's path does not cross
// reads 0. Times per item are per tuple explained (batch, stream) or
// per request sent (serving workloads).
var perLayerUnits = map[string]string{
	"rf.invocations":          "count",
	"rf.busy_ms":              "ms/item",
	"rf.ns_per_call":          "ns",
	"rf.pool_invocations":     "count",
	"core.reuse_rate":         "share",
	"core.frequent_itemsets":  "count",
	"core.pool_build_ms":      "ms/item",
	"fim.mine_ms":             "ms/item",
	"fim.mines":               "count",
	"cache.hit_rate":          "share",
	"cache.evictions":         "count",
	"explain.self_ms":         "ms/item",
	"router.self_ms":          "ms",
	"router.forward_ms":       "ms",
	"router.failovers":        "count",
	"router.replica_skew":     "ratio",
	"serve.handler_ms":        "ms",
	"serve.queue_wait_ms":     "ms",
	"serve.batch_assembly_ms": "ms",
	"serve.flush_tuples":      "count",
	"serve.rejected":          "count",
	"store.hit_rate":          "share",
	"store.entries":           "count",
	"exact.served":            "count",
	"exact.handler_ms":        "ms",
	"exact.fallbacks":         "count",
	"loadgen.lag_p99_ms":      "ms",
	"loadgen.conn_wait_ms":    "ms",
	"other.self_ms":           "ms/item",
	"tracing.overhead":        "share",
}

// newLayerOutcome returns an outcome with every per-layer metric at 0.
func newLayerOutcome() *outcome {
	o := &outcome{}
	for name, unit := range perLayerUnits {
		o.set(name, 0, unit)
	}
	return o
}

// coreTotals sums the core.Report fields the layer tables read, over
// the flushes, calls or tuples of a traced phase, together with the
// classifier wrapper's reading over the same span.
type coreTotals struct {
	tuples            int64
	invocations       int64
	poolInvocations   int64
	reused            int64
	mine, pool, expl  time.Duration
	cacheHits, misses int64
	evictions         int64
	rf                meterSnap
	// rfPool is the classifier time spent labelling pooled
	// perturbations, apportioned by invocation count (apportionRFPool):
	// pool and explain calls hit the same forest with rows of one shape.
	rfPool time.Duration
}

func (c *coreTotals) addReport(r core.Report) {
	c.tuples += int64(r.Tuples)
	c.invocations += r.Invocations
	c.poolInvocations += r.PoolInvocations
	c.reused += r.ReusedSamples
	c.mine += r.MineTime
	c.pool += r.PoolTime
	c.expl += r.ExplainTime
	c.cacheHits += r.Cache.Hits
	c.misses += r.Cache.Misses
	c.evictions += r.Cache.Evictions
}

// rfSplit is the classifier time of pool labelling and of the explain
// phase.
func (c *coreTotals) rfSplit() (pool, explain time.Duration) {
	return c.rfPool, c.rf.busy - c.rfPool
}

// apportionRFPool sets rfPool by the pool's share of the invocations.
func (c *coreTotals) apportionRFPool() {
	if c.invocations > 0 {
		c.rfPool = time.Duration(float64(c.rf.busy) * float64(c.poolInvocations) / float64(c.invocations))
	}
}

// fillCore sets the rf, core, fim, cache and explain metrics from the
// totals; per-item times divide by items.
func (c *coreTotals) fillCore(o *outcome, items float64) {
	_, rfExpl := c.rfSplit()
	o.set("rf.invocations", float64(c.rf.calls), "count")
	o.set("rf.busy_ms", ms(c.rf.busy)/items, "ms/item")
	o.set("rf.ns_per_call", ratio(float64(c.rf.busy), float64(c.rf.calls)), "ns")
	o.set("rf.pool_invocations", float64(c.poolInvocations), "count")
	explainCalls := c.invocations - c.poolInvocations
	o.set("core.reuse_rate", ratio(float64(c.reused), float64(c.reused+explainCalls)), "share")
	o.set("core.pool_build_ms", ms(c.pool)/items, "ms/item")
	o.set("fim.mine_ms", ms(c.mine)/items, "ms/item")
	o.set("cache.hit_rate", ratio(float64(c.cacheHits), float64(c.cacheHits+c.misses)), "share")
	o.set("cache.evictions", float64(c.evictions), "count")
	o.set("explain.self_ms", ms(c.expl-rfExpl)/items, "ms/item")
}

// coreRows adds the rf, fim, core and explain rows of a layer table,
// scaled by scale (per item, or per request share of flush time).
func (c *coreTotals) coreRows(t *layerTable, scale float64) {
	rfPool, rfExpl := c.rfSplit()
	t.add("rf", ms(c.rf.busy)*scale, "classifier Predict calls (wrapper clock)")
	t.add("fim", ms(c.mine)*scale, "itemset mining (Report.MineTime)")
	t.add("core", ms(c.pool-rfPool)*scale, "pool build less its classifier time (Report.PoolTime)")
	t.add("explain", ms(c.expl-rfExpl)*scale, "lime/shap/anchor, perturb, linmodel, mab less classifier time (Report.ExplainTime)")
}

// attributionTau is the fidelity of attribution explanations: the mean
// Kendall τ between each tuple's weights and the sequential baseline's.
func attributionTau(got, want []core.Explanation) float64 {
	var as, bs [][]float64
	for i := range got {
		if got[i].Attribution == nil || want[i].Attribution == nil {
			continue
		}
		as = append(as, got[i].Attribution.Weights)
		bs = append(bs, want[i].Attribution.Weights)
	}
	return metrics.MeanKendallTau(as, bs)
}

// sameRule is the fidelity of Anchor explanations: the share of tuples
// whose rule (predicates and class) equals the sequential baseline's.
func sameRule(got, want []core.Explanation) float64 {
	same := 0
	for i := range got {
		g, w := got[i].Rule, want[i].Rule
		if g != nil && w != nil && g.Class == w.Class && g.Items.Key() == w.Items.Key() {
			same++
		}
	}
	return ratio(float64(same), float64(len(got)))
}

// checkExplanations records a violation for every explanation that is
// missing, failed, degraded or empty, and returns how many there were.
func checkExplanations(o *outcome, what string, exps []core.Explanation, want int) int {
	bad := 0
	if len(exps) != want {
		o.violate("%s: %d explanations for %d tuples", what, len(exps), want)
		bad += abs(want - len(exps))
	}
	for i, e := range exps {
		if e.Status != core.StatusOK || (e.Attribution == nil && e.Rule == nil) {
			bad++
			if bad <= 3 {
				o.violate("%s: tuple %d answered %s", what, i, e.Status)
			}
		}
	}
	return bad
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
