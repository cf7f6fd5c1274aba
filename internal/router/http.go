package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"shahin/internal/dataset"
	"shahin/internal/obs"
	"shahin/internal/serve"
)

// Route is the routing provenance attached to every answer: which
// replica served the tuple, how many failovers it took to get there,
// and whether the routing itself was degraded (served by a fallback
// node instead of the affinity owner — pool reuse suffers but the
// answer is real).
type Route struct {
	Replica   string `json:"replica"`
	Failovers int    `json:"failovers,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
}

// ExplainResponse is the router's POST /v1/explain answer: the serving
// replica's response plus routing provenance.
type ExplainResponse struct {
	serve.ExplainResponse
	Route Route `json:"route"`
}

// BatchResponse is the router's POST /v1/explain/batch answer, one
// ExplainResponse per input tuple in input order.
type BatchResponse struct {
	Explanations []ExplainResponse `json:"explanations"`
	Count        int               `json:"count"`
}

// errorResponse is the JSON body of every non-2xx router-originated
// answer; replica-originated errors pass through as received.
type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes mirrors serve's request-body bound.
const maxBodyBytes = 8 << 20

// Handler returns the router's HTTP API:
//
//	POST /v1/explain        route one tuple to its affinity replica
//	POST /v1/explain/batch  route a batch, tuples individually
//	GET  /healthz           router liveness
//	GET  /readyz            readiness (503 until >= 1 replica healthy)
//	GET  /replicas          per-replica health and breaker state
//
// The explain endpoints propagate an incoming W3C traceparent through
// the hop — the replica's spans join the caller's trace — and echo the
// router's own trace identity back, exactly like shahin-serve does.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/explain", rt.handleExplain)
	mux.HandleFunc("POST /v1/explain/batch", rt.handleBatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if rt.Healthy() == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "no healthy replicas")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /replicas", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, rt.Status())
	})
	return mux
}

// admitOne acquires one in-flight slot without blocking; the release
// func is nil when the router is saturated and the request must shed.
func (rt *Router) admitOne() func() {
	select {
	case rt.inflight <- struct{}{}:
		return func() { <-rt.inflight }
	default:
		return nil
	}
}

// handleExplain answers POST /v1/explain by forwarding the tuple to
// its routed replica, failing over in ring order.
func (rt *Router) handleExplain(w http.ResponseWriter, r *http.Request) {
	release := rt.admitOne()
	if release == nil {
		rt.rec.Counter(obs.CounterRouterShed).Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "router: too many in-flight requests"})
		return
	}
	defer release()
	start := time.Now() //shahinvet:allow walltime — request latency feeds the router histogram
	rt.rec.Counter(obs.CounterRouterRequests).Inc()
	defer func() {
		if rt.rec != nil {
			rt.rec.Histogram(obs.HistRouterRequest).Observe(time.Since(start))
		}
	}()

	var req serve.ExplainRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if err := rt.checkTuple(req.Tuple); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	tc := rt.requestTrace(r, w)
	resp, code := rt.explainOne(r, req.Tuple, req.Explainer, tc)
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, resp)
}

// explainOne routes one tuple and maps the outcome to a response and
// status code. It never hangs and never drops: the worst case is a 503
// with a JSON body saying every replica failed. explainer is the
// request's optional explainer field, forwarded to the replica as is;
// empty leaves it out of the forwarded body.
func (rt *Router) explainOne(r *http.Request, tuple []float64, explainer string, tc obs.TraceContext) (any, int) {
	var items []dataset.Item
	seq := rt.route(tuple, items, nil)
	preferred := seq[0]
	ordered := rt.orderByHealth(seq, make([]int, 0, len(seq)))

	body, err := json.Marshal(serve.ExplainRequest{Tuple: tuple, Explainer: explainer})
	if err != nil {
		return errorResponse{Error: err.Error()}, http.StatusInternalServerError
	}
	res, served, failovers, err := rt.explainVia(r.Context(), ordered, "/v1/explain", body, tc.Traceparent())
	if err != nil {
		return errorResponse{Error: err.Error()}, http.StatusServiceUnavailable
	}
	var inner serve.ExplainResponse
	if jerr := json.Unmarshal(res.body, &inner); jerr != nil {
		// A 4xx replica answer (e.g. 400 bad tuple) may carry a plain
		// error body; pass it through under the replica's status code.
		var passthrough json.RawMessage = res.body
		return passthrough, res.status
	}
	return ExplainResponse{
		ExplainResponse: inner,
		Route: Route{
			Replica:   rt.replicas[served].name,
			Failovers: failovers,
			Degraded:  served != preferred,
		},
	}, res.status
}

// handleBatch answers POST /v1/explain/batch: tuples are routed
// individually — preserving per-tuple affinity — and the response
// keeps input order. The overall status is the worst per-tuple status.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	release := rt.admitOne()
	if release == nil {
		rt.rec.Counter(obs.CounterRouterShed).Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "router: too many in-flight requests"})
		return
	}
	defer release()
	rt.rec.Counter(obs.CounterRouterRequests).Inc()

	var req serve.BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if len(req.Tuples) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty tuple batch"})
		return
	}
	for i, tuple := range req.Tuples {
		if err := rt.checkTuple(tuple); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("tuple %d: %v", i, err)})
			return
		}
	}
	tc := rt.requestTrace(r, w)
	resp := BatchResponse{Explanations: make([]ExplainResponse, len(req.Tuples)), Count: len(req.Tuples)}
	codes := make([]int, len(req.Tuples))
	var wg sync.WaitGroup
	for i, tuple := range req.Tuples {
		itc := tc.Child()
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, code := rt.explainOne(r, tuple, req.Explainer, itc)
			codes[i] = code
			if er, ok := out.(ExplainResponse); ok {
				resp.Explanations[i] = er
				return
			}
			// Router- or replica-originated error: surface it in place so
			// the batch stays positional.
			resp.Explanations[i] = ExplainResponse{
				ExplainResponse: serve.ExplainResponse{Status: "failed", Source: "rejected", Error: fmt.Sprintf("HTTP %d", code)},
			}
		}()
	}
	wg.Wait()
	code := http.StatusOK
	for _, c := range codes {
		if c > code {
			code = c
		}
	}
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, resp)
}

// checkTuple validates a tuple's width against the router's schema so
// malformed requests are refused before burning a forward.
func (rt *Router) checkTuple(tuple []float64) error {
	if rt.cfg.Stats == nil {
		return nil
	}
	if want := rt.cfg.Stats.NumAttrs(); len(tuple) != want {
		return fmt.Errorf("tuple has %d cells, schema expects %d", len(tuple), want)
	}
	return nil
}

// requestTrace resolves the hop's trace identity — a child of the
// caller's traceparent when one is present — and echoes it on the
// response, so the chain caller → router → replica is one trace.
func (rt *Router) requestTrace(r *http.Request, w http.ResponseWriter) obs.TraceContext {
	var tc obs.TraceContext
	if in, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		tc = in.Child()
	} else {
		tc = obs.NewTraceContext()
	}
	w.Header().Set("Traceparent", tc.Traceparent())
	w.Header().Set("X-Shahin-Trace-Id", tc.TraceID)
	return tc
}

// decodeBody parses a bounded JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //shahinvet:allow errcheck — the status line is already sent; a broken client pipe has no recovery
}
