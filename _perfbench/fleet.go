package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shahin/internal/core"
	"shahin/internal/rf"
	"shahin/internal/router"
	"shahin/internal/serve"
)

// fleet is a router and its replicas, listening on loopback.
type fleet struct {
	warms    []*core.Warm
	servers  []*serve.Server
	replicas []string // base URLs
	https    []*http.Server
	rt       *router.Router
	url      string
	meter    *meter // nil when untraced
}

// fleetHooks are the traced run's wrappers; the zero value installs
// none.
type fleetHooks struct {
	tr *tracer
	// replicaStretch, when set above 100, stretches every traced replica
	// handler to that percentage of its own duration; tests plant it.
	replicaStretch *atomic.Int64
}

// startFleet starts the replicas and the router. With hooks.tr set, each
// replica shares one metered classifier, every replica and the router
// sit behind span middleware, and the router forwards through a timing
// RoundTripper; without it the fleet is exactly what shahin-serve and
// shahin-router would run.
func startFleet(e *env, hooks fleetHooks) (*fleet, error) {
	f := &fleet{}
	var cls rf.Classifier = e.forest
	if hooks.tr != nil {
		f.meter = newMeter(e.forest)
		cls = f.meter
	}
	for i := 0; i < serveReplicas; i++ {
		warm, err := core.NewWarm(e.stats, cls, serveOpts, 0)
		if err != nil {
			f.stop()
			return nil, err
		}
		srv, err := serve.New(warm, serve.Config{RequestTimeout: 30 * time.Second})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.warms = append(f.warms, warm)
		f.servers = append(f.servers, srv)
		var h http.Handler = srv.Handler()
		if hooks.tr != nil {
			h = spanHandler(h, hooks.tr, "replica", hooks.replicaStretch)
		}
		url, hs, err := listen(h)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, url)
		f.https = append(f.https, hs)
	}
	rcfg := router.Config{Replicas: f.replicas, Stats: e.stats}
	if hooks.tr != nil {
		rcfg.Client = &http.Client{Transport: &timedTransport{base: http.DefaultTransport, tr: hooks.tr}}
	}
	rt, err := router.New(rcfg)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.rt = rt
	var h http.Handler = rt.Handler()
	if hooks.tr != nil {
		h = spanHandler(h, hooks.tr, "router", nil)
	}
	url, hs, err := listen(h)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.url = url
	f.https = append(f.https, hs)
	return f, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	return "http://" + ln.Addr().String(), hs, nil
}

// stop shuts the HTTP servers down (router first), stops the prober and
// drains the replicas, waiting for each.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- {
		_ = f.https[i].Shutdown(ctx) // best effort: the process is about to exit
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, s := range f.servers {
		_ = s.Drain(ctx) // no StorePath: drain has nothing to persist
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// warmUp sends the warm-up tuples through the router's batch endpoint
// and checks every answer, so the pools are built and the store holds
// the tuples repeats will ask for.
func (f *fleet) warmUp(tuples [][]float64) error {
	const chunk = 32
	for lo := 0; lo < len(tuples); lo += chunk {
		hi := min(lo+chunk, len(tuples))
		body, err := json.Marshal(serve.BatchRequest{Tuples: tuples[lo:hi]})
		if err != nil {
			return err
		}
		resp, err := http.Post(f.url+"/v1/explain/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		var out router.BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("warm-up: decoding answer: %w", err)
		}
		if resp.StatusCode != http.StatusOK || len(out.Explanations) != hi-lo {
			return fmt.Errorf("warm-up: HTTP %d with %d answers for %d tuples", resp.StatusCode, len(out.Explanations), hi-lo)
		}
		for _, x := range out.Explanations {
			if x.Status != "ok" {
				return fmt.Errorf("warm-up: a tuple answered %q", x.Status)
			}
		}
	}
	return nil
}

// fleetTotals sums the replicas' cumulative Reports and flush counts.
func (f *fleet) totals() (core.Report, int) {
	var rep core.Report
	flushes := 0
	for _, w := range f.warms {
		r := w.Report()
		rep.Tuples += r.Tuples
		rep.WallTime += r.WallTime
		rep.MineTime += r.MineTime
		rep.PoolTime += r.PoolTime
		rep.ExplainTime += r.ExplainTime
		rep.Invocations += r.Invocations
		rep.PoolInvocations += r.PoolInvocations
		rep.ReusedSamples += r.ReusedSamples
		rep.FrequentItemsets += r.FrequentItemsets
		rep.Cache.Hits += r.Cache.Hits
		rep.Cache.Misses += r.Cache.Misses
		rep.Cache.Evictions += r.Cache.Evictions
		flushes += w.Flushes()
	}
	return rep, flushes
}

func (f *fleet) remines() int {
	n := 0
	for _, w := range f.warms {
		n += w.Remines()
	}
	return n
}

func (f *fleet) storeEntries() int {
	n := 0
	for _, s := range f.servers {
		n += s.StoreLen()
	}
	return n
}

// diffReport is a - b over the fields totals sums.
func diffReport(a, b core.Report) core.Report {
	a.Tuples -= b.Tuples
	a.WallTime -= b.WallTime
	a.MineTime -= b.MineTime
	a.PoolTime -= b.PoolTime
	a.ExplainTime -= b.ExplainTime
	a.Invocations -= b.Invocations
	a.PoolInvocations -= b.PoolInvocations
	a.ReusedSamples -= b.ReusedSamples
	a.Cache.Hits -= b.Cache.Hits
	a.Cache.Misses -= b.Cache.Misses
	a.Cache.Evictions -= b.Cache.Evictions
	return a
}

// traceOf extracts the trace id from a W3C traceparent header.
func traceOf(traceparent string) string {
	parts := strings.Split(traceparent, "-")
	if len(parts) < 2 {
		return ""
	}
	return parts[1]
}

// spanHandler records a span named name for every traced explain
// request h serves. A stretch above 100 holds each response until it has
// taken that percentage of its own duration.
func spanHandler(h http.Handler, tr *tracer, name string, stretch *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() || r.URL.Path != "/v1/explain" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		if stretch != nil {
			if pct := stretch.Load(); pct > 100 {
				time.Sleep(time.Since(start) * time.Duration(pct-100) / 100)
			}
		}
		tr.record(name, traceOf(r.Header.Get("Traceparent")), start, time.Now())
	})
}

// timedTransport is the router's forwarding RoundTripper in traced
// runs: one "forward" span per attempt, from the request until the
// router closes the answer's body.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

// RoundTrip implements http.RoundTripper.
func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() || r.URL.Path != "/v1/explain" {
		return t.base.RoundTrip(r)
	}
	start := time.Now()
	trace := traceOf(r.Header.Get("Traceparent"))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.record("forward", trace, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.record("forward", trace, start, time.Now()) }}
	return resp, nil
}

// spanBody ends its forward span when the router closes it.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
