package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/rf"
	"shahin/internal/serve"
)

// postRaw posts a JSON body through the router and decodes a 200
// answer into out (nil skips decoding). It returns the status code.
func postRaw(t *testing.T, url string, req, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding router response: %v", err)
		}
	}
	return resp.StatusCode
}

// TestRouterForwardsExplainer puts the router in front of a real
// LIME-kind replica over an owned random forest. A request naming
// "exactshap" must reach the replica with the field intact and come
// back from the exact TreeSHAP path, on /v1/explain and per tuple on
// /v1/explain/batch; a kind the replica does not serve must still come
// back as the replica's 400.
func TestRouterForwardsExplainer(t *testing.T) {
	cfg, err := datagen.Spec("recidivism")
	if err != nil {
		t.Fatal(err)
	}
	d, err := cfg.Generate(1200, 80)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rf.Train(d, rf.Config{NumTrees: 8, MaxDepth: 6, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.NewWarm(st, forest, core.Options{
		Explainer:  core.LIME,
		LIME:       lime.Config{NumSamples: 200},
		MinSupport: 0.1,
		Tau:        50,
		Seed:       82,
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(warm, serve.Config{BatchWindow: time.Millisecond, Recorder: obs.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(s.Handler())
	defer replica.Close()
	defer s.Drain(context.Background()) //shahinvet:allow errcheck — drain errors surface in the serve package's drain test

	rt, err := New(Config{
		Replicas:      []string{replica.URL},
		Stats:         st,
		ProbeInterval: time.Hour,
		Breaker:       fault.Config{BreakerThreshold: 2, BreakerCooldownCalls: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuples := d.Rows(0, 4)
	var one ExplainResponse
	if code := postRaw(t, ts.URL+"/v1/explain", serve.ExplainRequest{Tuple: tuples[0], Explainer: "exactshap"}, &one); code != http.StatusOK {
		t.Fatalf("exact request: HTTP %d", code)
	}
	if one.Source != "exact" || one.Explanation.Attribution == nil {
		t.Fatalf("exact request answered by source %q, want exact", one.Source)
	}

	var batch BatchResponse
	if code := postRaw(t, ts.URL+"/v1/explain/batch", serve.BatchRequest{Tuples: tuples[1:], Explainer: "exactshap"}, &batch); code != http.StatusOK {
		t.Fatalf("exact batch: HTTP %d", code)
	}
	if batch.Count != 3 {
		t.Fatalf("exact batch count=%d want 3", batch.Count)
	}
	for i, e := range batch.Explanations {
		if e.Source != "exact" || e.Explanation.Attribution == nil {
			t.Fatalf("exact batch tuple %d answered by source %q, want exact", i, e.Source)
		}
	}

	// Without the field the replica's configured kind answers.
	var plain ExplainResponse
	if code := postRaw(t, ts.URL+"/v1/explain", serve.ExplainRequest{Tuple: tuples[0]}, &plain); code != http.StatusOK {
		t.Fatalf("default request: HTTP %d", code)
	}
	if plain.Source == "exact" {
		t.Fatal("default request took the exact path")
	}

	// A kind the replica was not started with is the replica's 400,
	// passed through, on both endpoints.
	if code := postRaw(t, ts.URL+"/v1/explain", serve.ExplainRequest{Tuple: tuples[0], Explainer: "anchor"}, nil); code != http.StatusBadRequest {
		t.Fatalf("mismatched explainer: HTTP %d, want 400", code)
	}
	if code := postRaw(t, ts.URL+"/v1/explain/batch", serve.BatchRequest{Tuples: tuples[:2], Explainer: "anchor"}, nil); code != http.StatusBadRequest {
		t.Fatalf("mismatched explainer batch: HTTP %d, want 400", code)
	}
}

// TestRouterForwardedBody: the body the replica receives is the
// canonical serve.ExplainRequest encoding — without an explainer field
// when the request had none, with it when it had one.
func TestRouterForwardedBody(t *testing.T) {
	st := testStats(t)
	a := newFakeReplica(t, "a")
	rt := newTestRouter(t, st, nil, a)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuple := []float64{1, 2, 3, 0.25}
	for _, req := range []serve.ExplainRequest{
		{Tuple: tuple},
		{Tuple: tuple, Explainer: "exactshap"},
	} {
		if code := postRaw(t, ts.URL+"/v1/explain", req, nil); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.body.Load(); got != string(want) {
			t.Fatalf("replica received %v, want %s", got, want)
		}
	}
}
