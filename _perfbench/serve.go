package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"shahin/internal/core"
	"shahin/internal/router"
	"shahin/internal/serve"
)

// The serving workloads drive one router (affinity policy) in front of
// two shahin-serve replicas, each with the serving defaults and a warm
// LIME pool, all in this process over loopback HTTP. serveRate and
// serveLimit are recorded in BENCHMARK.json; the rate was chosen with
// --sweep as the highest step meeting the limit without a growing
// backlog, less headroom.
const (
	serveRate     = 50.0                  // offered requests per second
	serveLimit    = 50 * time.Millisecond // latency limit behind slo_attainment
	serveReplicas = 2
	serveConns    = 2   // client connections (capped at the CPU count)
	serveWarm     = 128 // warm-up tuples: the pools build and the store fills before timing
	serveAudit    = 300 // leading fresh requests audited against core.Sequential
	exactProbe    = 8   // exactshap requests sent to each replica after timing
)

// serveSpec fixes one serving workload: its name and request mix.
type serveSpec struct {
	name string
	mix  requestMix
}

var (
	// serveMixed sends half fresh singles, 30% exact repeats and 20%
	// "explainer":"exactshap" requests, and requires every exactshap
	// request to be answered by the exact path. The router forwards a
	// request's tuple alone, dropping its explainer field, so until it
	// forwards the field this workload fails its output check.
	serveMixed = serveSpec{name: "serve-mixed", mix: requestMix{fresh: 0.5, repeat: 0.3}}
	// serveLIME is the same path without exactshap requests: fresh
	// singles and repeats in serve-mixed's proportion.
	serveLIME = serveSpec{name: "serve-lime", mix: requestMix{fresh: 0.625, repeat: 0.375}}
)

// clientConns is the load generator's connection cap: serveConns, and
// never more than the machine's CPUs.
func clientConns() int { return min(serveConns, runtime.NumCPU()) }

// serveOpts are shahin-serve's defaults.
var serveOpts = core.Options{Explainer: core.LIME, Seed: explainerSeed}

// serveTuples are the tuple tables a schedule indexes. Repeats ask for
// the warm-up tuples, drawn from the workload seed; each timed phase
// draws its own fresh and exact tuples, so no phase repeats another's.
type serveTuples struct {
	warm, fresh, exact [][]float64
}

// phaseSeed derives the seed of one timed phase of a run.
func phaseSeed(seed int64, phase int) int64 { return seed*16 + int64(phase) }

func warmTuples(e *env, seed int64) ([][]float64, error) { return e.tuples(serveWarm, seed*3+1) }

func makeServeTuples(e *env, seed int64, phase int, sched []arrival) (serveTuples, error) {
	nf, _, nx := counts(sched)
	ps := phaseSeed(seed, phase)
	var (
		t   serveTuples
		err error
	)
	if t.warm, err = warmTuples(e, seed); err != nil {
		return t, err
	}
	if t.fresh, err = e.tuples(max(nf, 1), ps*3+2); err != nil {
		return t, err
	}
	t.exact, err = e.tuples(max(nx, exactProbe), ps*3+3)
	return t, err
}

func (t serveTuples) tuple(a arrival) []float64 {
	switch a.Kind {
	case kindFresh:
		return t.fresh[a.Tuple]
	case kindRepeat:
		return t.warm[a.Tuple]
	default:
		return t.exact[a.Tuple]
	}
}

// payload is a request's JSON body.
func (t serveTuples) payload(a arrival) []byte {
	req := serve.ExplainRequest{Tuple: t.tuple(a)}
	if a.Kind == kindExact {
		req.Explainer = "exactshap"
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // generated tuples are finite, and finite floats always marshal
	}
	return body
}

// answered is a sample with its decoded router answer.
type answered struct {
	sample
	resp router.ExplainResponse
	// ok: HTTP 200, status ok, with an explanation, and for an exactshap
	// request one the exact path answered.
	ok bool
}

func decodeAll(samples []sample) []answered {
	out := make([]answered, len(samples))
	for i, s := range samples {
		out[i].sample = s
		if s.Err != nil || s.Code != http.StatusOK {
			continue
		}
		if err := json.Unmarshal(s.Body, &out[i].resp); err != nil {
			continue
		}
		x := out[i].resp
		out[i].ok = x.Status == "ok" && x.Explanation.Attribution != nil &&
			(s.Kind != kindExact || x.Source == "exact")
	}
	return out
}

// checkAnswers counts attempts and failures and records a violation
// for each of the first few failures. An exactshap request answered by
// another source fails: the exact path must not fall back silently.
func checkAnswers(o *outcome, as []answered) {
	bad, fellBack := 0, 0
	for _, a := range as {
		o.attempted++
		if a.ok {
			continue
		}
		o.failed++
		if a.Kind == kindExact && a.Code == http.StatusOK && a.resp.Status == "ok" && a.resp.Source != "exact" {
			fellBack++
			continue
		}
		bad++
		if bad <= 3 {
			o.violate("request %s (%s): HTTP %d, status %q, error %v", a.Trace, a.Kind, a.Code, a.resp.Status, a.Err)
		}
	}
	if fellBack > 0 {
		o.violate("%d exactshap requests were answered by another source, not the exact path (the router forwards only the tuple, dropping the explainer field)", fellBack)
	}
}

// exactFallbacks counts exactshap requests the exact path did not
// answer.
func exactFallbacks(as []answered) int {
	n := 0
	for _, a := range as {
		if a.Kind == kindExact && a.resp.Source != "exact" {
			n++
		}
	}
	return n
}

// probeTracePrefix marks the trace ids of exact-path probes.
const probeTracePrefix = "ffffffffffffffff"

// probeExact posts exactshap requests straight to each replica and
// checks the exact path answers them: the classifier (wrapped or not)
// must still unwrap to the forest. It checks the replicas' exact path
// apart from the router, in both serving workloads.
func probeExact(o *outcome, f *fleet, tuples [][]float64) {
	for r, base := range f.replicas {
		for i := 0; i < exactProbe && i < len(tuples); i++ {
			body, err := json.Marshal(serve.ExplainRequest{Tuple: tuples[i], Explainer: "exactshap"})
			if err != nil {
				panic(err) // generated tuples are finite, and finite floats always marshal
			}
			req, err := http.NewRequest(http.MethodPost, base+"/v1/explain", bytes.NewReader(body))
			if err != nil {
				o.violate("exact probe on replica %d: %v", r, err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Traceparent", fmt.Sprintf("00-%s%016x-00000000000000a1-01", probeTracePrefix, r*exactProbe+i+1))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				o.violate("exact probe on replica %d: %v", r, err)
				return
			}
			var x serve.ExplainResponse
			err = json.NewDecoder(resp.Body).Decode(&x)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || x.Source != "exact" || x.Status != "ok" {
				o.violate("exact probe on replica %d: HTTP %d, source %q, status %q (%v)", r, resp.StatusCode, x.Source, x.Status, err)
				return
			}
		}
	}
}

// serveAuditScore explains the leading fresh requests' tuples (up to
// serveAudit; a gated run sends more) with core.Sequential and scores
// the served answers against it.
func serveAuditScore(o *outcome, e *env, t serveTuples, as []answered) (float64, error) {
	var (
		tuples [][]float64
		got    []core.Explanation
	)
	for _, a := range as {
		if a.Kind == kindFresh && a.ok && len(got) < serveAudit {
			tuples = append(tuples, t.tuple(a.arrival))
			got = append(got, a.resp.Explanation)
		}
	}
	if len(got) == 0 {
		o.violate("no fresh request answered to audit")
		return 0, nil
	}
	base, err := core.Sequential(e.stats, e.forest, serveOpts, tuples)
	if err != nil {
		return 0, fmt.Errorf("sequential audit: %w", err)
	}
	checkExplanations(o, "sequential audit", base.Explanations, len(tuples))
	return attributionTau(got, base.Explanations), nil
}

// setupFleet is the serving workloads' set-up step: start a fleet and
// warm it.
func setupFleet(seed int64, hooks fleetHooks) func(*env) (*fleet, func(), error) {
	return func(e *env) (*fleet, func(), error) {
		f, err := startFleet(e, hooks)
		if err != nil {
			return nil, nil, err
		}
		warm, err := warmTuples(e, seed)
		if err == nil {
			err = f.warmUp(warm)
		}
		if err != nil {
			f.stop()
			return nil, nil, err
		}
		return f, f.stop, nil
	}
}

// serveWorkload returns the workload that runs spec.
func serveWorkload(spec serveSpec) workload {
	return func(cfg runConfig, traced bool) (*outcome, error) {
		var hooks fleetHooks
		if traced {
			hooks.tr = newTracer()
		}
		e, f, setupS, err := setupEnv(setupFleet(cfg.seed, hooks))
		if err != nil {
			return nil, err
		}
		defer f.stop()
		if !traced {
			return serveUntraced(cfg, spec, e, f, setupS)
		}
		return serveTraced(cfg, spec, e, f, hooks.tr)
	}
}

// servePhase runs one timed phase of spec's mix at rate and returns the
// decoded answers and the fleet's Report and flush deltas over it.
func servePhase(e *env, f *fleet, tr *tracer, spec serveSpec, seed int64, phase int, rate float64, dur time.Duration) ([]answered, serveTuples, core.Report, int, error) {
	sched := makeSchedule(phaseSeed(seed, phase), rate, dur, serveWarm, spec.mix)
	tuples, err := makeServeTuples(e, seed, phase, sched)
	if err != nil {
		return nil, tuples, core.Report{}, 0, err
	}
	g := newLoadgen(f.url, clientConns(), tr)
	defer g.close()
	rep0, fl0 := f.totals()
	samples := g.run(phase, sched, tuples.payload)
	rep1, fl1 := f.totals()
	return decodeAll(samples), tuples, diffReport(rep1, rep0), fl1 - fl0, nil
}

func serveUntraced(cfg runConfig, spec serveSpec, e *env, f *fleet, setupS float64) (*outcome, error) {
	o := &outcome{}
	var (
		as     []answered
		tuples serveTuples
		rep    core.Report
	)
	rss, err := measurePeakRSS(func() (err error) {
		as, tuples, rep, _, err = servePhase(e, f, nil, spec, cfg.seed, 0, serveRate, cfg.seconds)
		return err
	})
	if err != nil {
		return nil, err
	}
	checkAnswers(o, as)
	probeExact(o, f, tuples.exact)
	fid, err := serveAuditScore(o, e, tuples, as)
	if err != nil {
		return nil, err
	}
	// The phase lasts until its last answer: tuples_per_s is answers per
	// second of it.
	out := endToEnd{setupS: setupS, invocations: rep.Invocations, fidelity: fid, peakRSS: rss}
	for _, a := range as {
		out.timed = max(out.timed, a.At+a.Latency)
		l := ms(a.Latency)
		out.latencies = append(out.latencies, l)
		out.sloSent++
		if a.ok {
			out.done++
			out.tuples++
			if a.Latency <= serveLimit {
				out.sloMet++
			}
		}
	}
	out.fill(o)
	return o, nil
}

// serveTraced runs a bare phase and a traced phase of half the seconds
// each on the warmed fleet and builds the per-request layer table.
func serveTraced(cfg runConfig, spec serveSpec, e *env, f *fleet, tr *tracer) (*outcome, error) {
	o := newLayerOutcome()
	half := cfg.seconds / 2
	plain, _, _, _, err := servePhase(e, f, nil, spec, cfg.seed, 0, serveRate, half)
	if err != nil {
		return nil, err
	}
	checkAnswers(o, plain)
	as, t, err := tracedServePhase(o, e, f, tr, spec, cfg.seed, 1, serveRate, half)
	if err != nil {
		return nil, err
	}
	t.print(o)
	t.check(o)
	overhead(o, meanLatency(plain), meanLatency(as), "ms/request")
	if cfg.spansOut != "" {
		if err := tr.dump(cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// tracedServePhase runs one phase with the fleet's wrappers on, probes
// the exact path, checks the wrapper's Predict count against the
// replicas' Reports, sets the serving per-layer metrics, and returns
// the answers and the layer table.
func tracedServePhase(o *outcome, e *env, f *fleet, tr *tracer, spec serveSpec, seed int64, phase int, rate float64, dur time.Duration) ([]answered, *layerTable, error) {
	f.meter.on.Store(true)
	tr.on.Store(true)
	defer func() {
		tr.on.Store(false)
		f.meter.on.Store(false)
	}()
	m0, mines0 := f.meter.snapshot(), f.remines()
	as, tuples, rep, flushes, err := servePhase(e, f, tr, spec, seed, phase, rate, dur)
	if err != nil {
		return nil, nil, err
	}
	rf := f.meter.snapshot().sub(m0)
	checkAnswers(o, as)
	if rf.calls != rep.Invocations {
		o.violate("%s: wrapper counted %d Predict calls, the replicas' Reports %d", spec.name, rf.calls, rep.Invocations)
	}
	probeExact(o, f, tuples.exact)

	t, computed := serveLayers(o, spec, tr.all(), as, rep, rf)
	o.set("serve.flush_tuples", ratio(float64(computed), float64(flushes)), "count")
	o.set("fim.mines", float64(f.remines()-mines0), "count")
	o.set("store.entries", float64(f.storeEntries()), "count")
	o.set("core.frequent_itemsets", float64(rep.FrequentItemsets), "count")
	o.set("exact.fallbacks", float64(exactFallbacks(as)), "count")
	return as, t, nil
}

func meanLatency(as []answered) float64 {
	var ls []float64
	for _, a := range as {
		ls = append(ls, ms(a.Latency))
	}
	return mean(ls)
}

// traceSpans groups a request's spans by layer.
type traceSpans struct {
	router, forward, replica []span
}

// serveLayers builds the per-request layer table of a traced phase from
// the spans, the answers' source and stages fields, the replicas'
// Report deltas and the classifier wrapper's reading, and sets the
// serving per-layer metrics. It also returns how many requests a flush
// computed.
func serveLayers(o *outcome, spec serveSpec, spans []span, as []answered, rep core.Report, rf meterSnap) (*layerTable, int) {
	var exactHandlers []float64 // exact-path replica handlers: mix answers and probes
	byTrace := make(map[string]*traceSpans)
	for _, s := range spans {
		if strings.HasPrefix(s.Trace, probeTracePrefix) {
			if s.Name == "replica" {
				exactHandlers = append(exactHandlers, s.durMS())
			}
			continue
		}
		ts := byTrace[s.Trace]
		if ts == nil {
			ts = &traceSpans{}
			byTrace[s.Trace] = ts
		}
		switch s.Name {
		case "router":
			ts.router = append(ts.router, s)
		case "forward":
			ts.forward = append(ts.forward, s)
		case "replica":
			ts.replica = append(ts.replica, s)
		}
	}

	// Flush time is shared by the requests of a flush; each computed
	// request's post-queue wait is split by the shares the replicas'
	// stage clocks and the wrapper measured over the phase.
	tot := coreTotals{rf: rf}
	tot.addReport(rep)
	tot.apportionRFPool()
	wall := ms(rep.WallTime)

	var (
		t                                       = &layerTable{title: spec.name + ", requests", unit: "ms/request"}
		loadgenRow, routerRow, hopRow, serveRow float64
		storeRow, exactRow, flushShare          float64
		routerSelf, forwards, handlers          []float64
		queueWaits, assembly                    []float64
		lags, connWaits                         []float64
		computed, exactServed                   int
		storeHits, lookups, failovers, rejected int
		perReplica                              = make(map[string]int)
	)
	n := 0
	for _, a := range as {
		lags = append(lags, ms(a.Lag))
		connWaits = append(connWaits, ms(a.ConnWait))
		if a.Code == http.StatusTooManyRequests || a.Code == http.StatusServiceUnavailable {
			rejected++
		}
		ts := byTrace[a.Trace]
		if !a.ok || ts == nil || len(ts.router) != 1 || len(ts.replica) == 0 {
			continue
		}
		n++
		req := ms(a.Latency)
		rh := ts.router[0].durMS()
		fw, rp := 0.0, 0.0
		for _, s := range ts.forward {
			fw += s.durMS()
			forwards = append(forwards, s.durMS())
		}
		for _, s := range ts.replica {
			rp += s.durMS()
		}
		serving := ts.replica[len(ts.replica)-1].durMS()
		handlers = append(handlers, serving)
		routerSelf = append(routerSelf, rh-fw)
		t.e2e += req
		loadgenRow += req - rh
		routerRow += rh - fw
		hopRow += fw - rp
		perReplica[a.resp.Route.Replica]++
		failovers += a.resp.Route.Failovers

		// The answer's stages split the replica's time: queue wait, then
		// everything after it (the flush, a store lookup or the exact
		// walk). The rest of the handler is decode, encode, middleware.
		var qw, post float64
		if sb := a.resp.Stages; sb != nil {
			qw, post = ms(sb.QueueWait), ms(sb.Total()-sb.QueueWait)
		}
		serveRow += rp - post
		switch a.resp.Source {
		case "store":
			storeHits++
			lookups++
			storeRow += post
		case "exact":
			exactServed++
			exactRow += post
			exactHandlers = append(exactHandlers, serving)
		default: // computed
			lookups++
			computed++
			queueWaits = append(queueWaits, qw)
			assembly = append(assembly, post)
			flushShare += post
		}
	}
	if n == 0 {
		o.violate("%s: no traced request had a complete span set", spec.name)
		return t, computed
	}
	items := float64(n)
	scale := ratio(flushShare, wall) / items
	t.e2e /= items
	t.add("loadgen", loadgenRow/items, "generator lag, connection wait, client HTTP")
	t.add("router", routerRow/items, "router handler less its forwards")
	t.add("hop", hopRow/items, "router→replica HTTP exchange less the replica handler")
	t.add("serve", serveRow/items, "replica handler: queue wait, decode, encode")
	t.add("store", storeRow/items, "explanation-store hits")
	t.add("exact", exactRow/items, "exact TreeSHAP answers")
	tot.coreRows(t, scale)
	o.set("other.self_ms", t.other(), "ms/item")

	tot.fillCore(o, float64(tot.tuples))
	o.set("router.self_ms", median(routerSelf), "ms")
	o.set("router.forward_ms", median(forwards), "ms")
	o.set("router.failovers", float64(failovers), "count")
	o.set("router.replica_skew", skew(perReplica, serveReplicas), "ratio")
	o.set("serve.handler_ms", median(handlers), "ms")
	o.set("serve.queue_wait_ms", median(queueWaits), "ms")
	o.set("serve.batch_assembly_ms", median(assembly), "ms")
	o.set("serve.rejected", float64(rejected), "count")
	o.set("store.hit_rate", ratio(float64(storeHits), float64(lookups)), "share")
	o.set("exact.served", float64(exactServed), "count")
	o.set("exact.handler_ms", median(exactHandlers), "ms")
	if lt, ok := highestTail(lags, 99); ok {
		o.set("loadgen.lag_p99_ms", lt.Value, "ms")
	}
	o.set("loadgen.conn_wait_ms", mean(connWaits), "ms")
	return t, computed
}

// skew is the busiest replica's share of requests over an even share.
func skew(perReplica map[string]int, replicas int) float64 {
	total, most := 0, 0
	for _, c := range perReplica {
		total += c
		most = max(most, c)
	}
	return ratio(float64(most)*float64(replicas), float64(total))
}

// sweepRates are the offered rates --sweep steps through.
var sweepRates = []float64{20, 40, 50, 60, 80, 100, 120}

// runSweep warms one fleet and runs spec's mix at each of sweepRates
// for the run's seconds, printing p50, p99 and slo_attainment per step
// and the highest rate that meets the latency limit at p99 with every
// request answered and no growing backlog.
func runSweep(cfg runConfig, spec serveSpec) error {
	e, f, _, err := setupEnv(setupFleet(cfg.seed, fleetHooks{}))
	if err != nil {
		return err
	}
	defer f.stop()
	fmt.Printf("%6s %6s %9s %9s %7s %9s %s\n", "rps", "sent", "p50_ms", "p99_ms", "slo", "lag_ms", "backlog")
	best := 0.0
	for i, rate := range sweepRates {
		as, _, _, _, err := servePhase(e, f, nil, spec, cfg.seed, 1+i, rate, cfg.seconds)
		if err != nil {
			return err
		}
		var lat, lags []float64
		ok, met := 0, 0
		for _, a := range as {
			lat = append(lat, ms(a.Latency))
			lags = append(lags, ms(a.Lag))
			if a.ok {
				ok++
				if a.Latency <= serveLimit {
					met++
				}
			}
		}
		p99, _ := highestTail(lat, 99)
		growing := backlogGrows(as)
		fmt.Printf("%6.0f %6d %9.3f %9.3f %7.4f %9.3f %v\n", rate, len(as), median(lat), p99.Value,
			ratio(float64(met), float64(len(as))), percentile(lags, 99), growing)
		if ok == len(as) && p99.Value <= ms(serveLimit) && !growing {
			best = rate
		}
	}
	fmt.Printf("highest rate meeting p99 <= %s without a growing backlog: %.0f rps\n", serveLimit, best)
	return nil
}

// backlogGrows reports whether latency climbed through a step: the
// median of its last third of requests is more than twice, and 5 ms
// above, the median of its first third.
func backlogGrows(as []answered) bool {
	n := len(as) / 3
	if n == 0 {
		return false
	}
	var first, last []float64
	for i := 0; i < n; i++ {
		first = append(first, ms(as[i].Latency))
		last = append(last, ms(as[len(as)-1-i].Latency))
	}
	a, b := median(first), median(last)
	return b > 2*a && b > a+5
}
