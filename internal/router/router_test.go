package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/serve"
)

func testStats(t *testing.T) *dataset.Stats {
	t.Helper()
	cfg := &datagen.Config{
		Name: "router",
		Cat: []datagen.CatSpec{
			{Card: 4, Skew: 1.2}, {Card: 3, Skew: 1.0}, {Card: 5, Skew: 1.2},
		},
		Num: []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSignatureDeterministicAndDiscretised(t *testing.T) {
	st := testStats(t)
	a := []float64{1, 2, 3, 0.5}
	b := []float64{1, 2, 3, 0.5}
	sa := Signature(st.ItemizeRow(a, nil))
	sb := Signature(st.ItemizeRow(b, nil))
	if sa != sb {
		t.Fatalf("identical tuples: signatures %#x != %#x", sa, sb)
	}
	// A different categorical value must (with these cards) change a bin
	// and therefore the signature.
	c := []float64{2, 2, 3, 0.5}
	if sc := Signature(st.ItemizeRow(c, nil)); sc == sa {
		t.Fatalf("distinct bins collided: %#x", sc)
	}
	// Numeric values inside the same quartile bin share the signature.
	items := st.ItemizeRow(a, nil)
	itemsShift := st.ItemizeRow([]float64{1, 2, 3, 0.5000001}, nil)
	if fmt.Sprint(items) == fmt.Sprint(itemsShift) && Signature(items) != Signature(itemsShift) {
		t.Fatal("same item vector, different signature")
	}
}

func TestRingDeterminismAndCoverage(t *testing.T) {
	r1 := NewRing(3, 64)
	r2 := NewRing(3, 64)
	hit := map[int]int{}
	for i := 0; i < 10_000; i++ {
		sig := mix64(uint64(i))
		a, b := r1.Lookup(sig), r2.Lookup(sig)
		if a != b {
			t.Fatalf("rings disagree at %#x: %d vs %d", sig, a, b)
		}
		hit[a]++
	}
	for rep := 0; rep < 3; rep++ {
		if hit[rep] < 1000 {
			t.Fatalf("replica %d owns only %d/10000 keys — ring badly unbalanced: %v", rep, hit[rep], hit)
		}
	}
	// Sequence: every replica exactly once, owner first.
	for i := 0; i < 100; i++ {
		sig := mix64(uint64(i) ^ 0xabcdef)
		seq := r1.Sequence(sig, nil)
		if len(seq) != 3 {
			t.Fatalf("Sequence len=%d, want 3", len(seq))
		}
		if seq[0] != r1.Lookup(sig) {
			t.Fatalf("Sequence head %d != Lookup %d", seq[0], r1.Lookup(sig))
		}
		seen := map[int]bool{}
		for _, rep := range seq {
			if seen[rep] {
				t.Fatalf("Sequence repeats replica %d: %v", rep, seq)
			}
			seen[rep] = true
		}
	}
}

// fakeReplica is a minimal shahin-serve stand-in: /healthz and
// /v1/explain with a canned answer, a togglable failure mode, and a
// request count.
type fakeReplica struct {
	ts      *httptest.Server
	calls   atomic.Int64
	failing atomic.Bool
	lastTP  atomic.Value // last traceparent header seen
	body    atomic.Value // last forwarded request body, as a string
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if f.failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/explain", func(w http.ResponseWriter, r *http.Request) {
		if f.failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		f.calls.Add(1)
		f.lastTP.Store(r.Header.Get("traceparent"))
		if b, err := io.ReadAll(r.Body); err == nil {
			f.body.Store(string(b))
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.ExplainResponse{Status: "ok", Source: name}) //shahinvet:allow errcheck — test fixture write
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func newTestRouter(t *testing.T, st *dataset.Stats, rec *obs.Recorder, replicas ...*fakeReplica) *Router {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, f := range replicas {
		urls[i] = f.ts.URL
	}
	rt, err := New(Config{
		Replicas:      urls,
		Stats:         st,
		ProbeInterval: time.Hour, // tests drive probes via ProbeNow
		Breaker:       fault.Config{BreakerThreshold: 2, BreakerCooldownCalls: 1},
		Recorder:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postTuple(t *testing.T, url string, tuple []float64, header http.Header) (ExplainResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(serve.ExplainRequest{Tuple: tuple})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/explain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	var out ExplainResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding router response: %v", err)
		}
	}
	return out, resp
}

// TestRouterAffinityPinsTuples: the same tuple always lands on the
// same replica, and the response names it.
func TestRouterAffinityPinsTuples(t *testing.T) {
	st := testStats(t)
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	rt := newTestRouter(t, st, nil, a, b, c)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuple := []float64{1, 2, 3, 0.25}
	first, resp := postTuple(t, ts.URL, tuple, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if first.Route.Degraded || first.Route.Failovers != 0 {
		t.Fatalf("clean route marked degraded: %+v", first.Route)
	}
	for i := 0; i < 5; i++ {
		again, _ := postTuple(t, ts.URL, tuple, nil)
		if again.Route.Replica != first.Route.Replica {
			t.Fatalf("tuple moved: %s then %s", first.Route.Replica, again.Route.Replica)
		}
	}
	total := a.calls.Load() + b.calls.Load() + c.calls.Load()
	if total != 6 {
		t.Fatalf("replicas saw %d calls, want 6", total)
	}
	// All six went to one replica.
	if a.calls.Load() != 6 && b.calls.Load() != 6 && c.calls.Load() != 6 {
		t.Fatalf("affinity split calls: a=%d b=%d c=%d", a.calls.Load(), b.calls.Load(), c.calls.Load())
	}
}

// TestRouterFailoverMarksDegraded: with the affinity owner down, the
// request fails over in ring order, is answered, and is marked
// degraded — never dropped.
func TestRouterFailoverMarksDegraded(t *testing.T) {
	st := testStats(t)
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	replicas := []*fakeReplica{a, b, c}
	rec := obs.NewRecorder()
	rt := newTestRouter(t, st, rec, a, b, c)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuple := []float64{1, 2, 3, 0.25}
	first, _ := postTuple(t, ts.URL, tuple, nil)
	var owner *fakeReplica
	for i, f := range replicas {
		if fmt.Sprintf("replica%d", i) == first.Route.Replica {
			owner = f
		}
	}
	if owner == nil {
		t.Fatalf("unknown owner %q", first.Route.Replica)
	}

	owner.failing.Store(true)
	out, resp := postTuple(t, ts.URL, tuple, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: HTTP %d", resp.StatusCode)
	}
	if !out.Route.Degraded || out.Route.Failovers == 0 {
		t.Fatalf("failover not marked degraded: %+v", out.Route)
	}
	if out.Route.Replica == first.Route.Replica {
		t.Fatalf("still routed to the dead owner %s", out.Route.Replica)
	}
	if rec.Counter(obs.CounterRouterFailovers).Value() == 0 {
		t.Fatal("failover counter not incremented")
	}

	// Once the owner is marked unhealthy, requests route around it
	// without retrying — it's the active prober that accumulates the
	// failures that trip its breaker (threshold 2).
	rt.ProbeNow()
	rt.ProbeNow()
	st2 := rt.Status()
	tripped := false
	for _, s := range st2 {
		if s.Name == first.Route.Replica && s.Breaker != "closed" {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("owner breaker still closed after repeated failures: %+v", st2)
	}

	// Recovery: owner comes back, probes close the breaker, and
	// affinity routing resumes.
	owner.failing.Store(false)
	for i := 0; i < 5; i++ {
		rt.ProbeNow()
	}
	back, _ := postTuple(t, ts.URL, tuple, nil)
	if back.Route.Replica != first.Route.Replica || back.Route.Degraded {
		t.Fatalf("affinity did not recover: %+v", back.Route)
	}
}

// TestRouterAllReplicasDown: when the whole fleet is down the answer
// is a 503 with a JSON error body — not a hang, not a dropped tuple.
func TestRouterAllReplicasDown(t *testing.T) {
	st := testStats(t)
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	rec := obs.NewRecorder()
	rt := newTestRouter(t, st, rec, a, b)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	a.failing.Store(true)
	b.failing.Store(true)

	body, _ := json.Marshal(serve.ExplainRequest{Tuple: []float64{1, 2, 3, 0.25}})
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("Content-Type %q", resp.Header.Get("Content-Type"))
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "every replica failed") {
		t.Fatalf("error %q", er.Error)
	}
	if rec.Counter(obs.CounterRouterUnrouted).Value() == 0 {
		t.Fatal("unrouted counter not incremented")
	}
}

// TestRouterShedsPastMaxInflight: with the admission semaphore
// saturated, requests are shed with 429 + Retry-After.
func TestRouterShedsPastMaxInflight(t *testing.T) {
	st := testStats(t)
	a := newFakeReplica(t, "a")
	rec := obs.NewRecorder()
	rt, err := New(Config{
		Replicas:      []string{a.ts.URL},
		Stats:         st,
		MaxInflight:   1,
		ProbeInterval: time.Hour,
		Recorder:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	rt.inflight <- struct{}{} // saturate the semaphore
	body, _ := json.Marshal(serve.ExplainRequest{Tuple: []float64{1, 2, 3, 0.25}})
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After header")
	}
	if rec.Counter(obs.CounterRouterShed).Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", rec.Counter(obs.CounterRouterShed).Value())
	}
	<-rt.inflight
	if _, resp := postTuple(t, ts.URL, []float64{1, 2, 3, 0.25}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request: HTTP %d", resp.StatusCode)
	}
}

// TestRouterTracePropagation: the router joins the caller's trace and
// forwards a child traceparent so the replica joins the same trace.
func TestRouterTracePropagation(t *testing.T) {
	st := testStats(t)
	a := newFakeReplica(t, "a")
	rt := newTestRouter(t, st, nil, a)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	in := obs.NewTraceContext()
	hdr := http.Header{}
	hdr.Set("traceparent", in.Traceparent())
	_, resp := postTuple(t, ts.URL, []float64{1, 2, 3, 0.25}, hdr)
	echo := resp.Header.Get("X-Shahin-Trace-Id")
	if echo != in.TraceID {
		t.Fatalf("router echoed trace %q, want caller's %q", echo, in.TraceID)
	}
	fwd, _ := a.lastTP.Load().(string)
	parsed, err := obs.ParseTraceparent(fwd)
	if err != nil {
		t.Fatalf("replica saw traceparent %q: %v", fwd, err)
	}
	if parsed.TraceID != in.TraceID {
		t.Fatalf("replica trace %q, want %q", parsed.TraceID, in.TraceID)
	}
	if parsed.SpanID == in.SpanID {
		t.Fatal("router forwarded the caller's span ID instead of a child")
	}
}

// TestRouterReadyzAndReplicas: readiness tracks replica health and
// GET /replicas reports the per-replica view.
func TestRouterReadyzAndReplicas(t *testing.T) {
	st := testStats(t)
	a := newFakeReplica(t, "a")
	rt := newTestRouter(t, st, nil, a)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz HTTP %d with a healthy replica", resp.StatusCode)
	}

	a.failing.Store(true)
	// Two probes: the first opens nothing (threshold 2), the second
	// trips the breaker; either way the health flag drops immediately.
	rt.ProbeNow()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz HTTP %d with no healthy replicas, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/replicas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	var status []ReplicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status) != 1 || status[0].Healthy || status[0].Name != "replica0" {
		t.Fatalf("replica status %+v", status)
	}
}

// TestRouterRoundRobinSpreads: the baseline policy ignores content and
// cycles the fleet.
func TestRouterRoundRobinSpreads(t *testing.T) {
	st := testStats(t)
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	rt, err := New(Config{
		Replicas:      []string{a.ts.URL, b.ts.URL},
		Stats:         st,
		Policy:        PolicyRoundRobin,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuple := []float64{1, 2, 3, 0.25}
	for i := 0; i < 6; i++ {
		if _, resp := postTuple(t, ts.URL, tuple, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if a.calls.Load() != 3 || b.calls.Load() != 3 {
		t.Fatalf("round robin split a=%d b=%d, want 3/3", a.calls.Load(), b.calls.Load())
	}
}
