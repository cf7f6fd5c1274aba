package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"time"
)

// reqKind is the class of one serving request.
type reqKind uint8

const (
	kindFresh  reqKind = iota // a tuple never sent before: a store write
	kindRepeat                // a tuple answered during warm-up: a store read
	kindExact                 // "explainer":"exactshap": bypasses the queue
)

func (k reqKind) String() string {
	return [...]string{"fresh", "repeat", "exact"}[k]
}

// requestMix is a serving workload's shares of fresh and repeat
// requests; the rest are exact-TreeSHAP requests.
type requestMix struct{ fresh, repeat float64 }

func (m requestMix) exact() float64 { return 1 - m.fresh - m.repeat }

// arrival is one scheduled request: when it is due (from the start of
// the timed phase), its kind, and the index of its tuple within the
// kind's tuple table.
type arrival struct {
	At    time.Duration
	Kind  reqKind
	Tuple int
}

// makeSchedule draws an open-loop Poisson arrival schedule of rate
// requests per second over dur, with the request mix mix. The count is
// fixed at rate·dur and the times are sorted uniform draws — a Poisson
// process conditioned on its count — so runs differ in when requests
// arrive, not in how many. Repeats pick uniformly among nRepeat warm-up
// tuples; fresh and exact requests take the next unused tuple of their
// table. The seed alone decides the schedule.
func makeSchedule(seed int64, rate float64, dur time.Duration, nRepeat int, mix requestMix) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, int(rate*dur.Seconds()+0.5))
	for i := range out {
		out[i].At = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	fresh, exact := 0, 0
	for i := range out {
		a := &out[i]
		switch u := rng.Float64(); {
		case u < mix.fresh:
			a.Kind, a.Tuple = kindFresh, fresh
			fresh++
		case u < mix.fresh+mix.repeat:
			a.Kind, a.Tuple = kindRepeat, rng.Intn(nRepeat)
		default:
			a.Kind, a.Tuple = kindExact, exact
			exact++
		}
	}
	return out
}

// counts returns how many arrivals of each kind a schedule holds.
func counts(sched []arrival) (fresh, repeat, exact int) {
	for _, a := range sched {
		switch a.Kind {
		case kindFresh:
			fresh++
		case kindRepeat:
			repeat++
		default:
			exact++
		}
	}
	return
}

// sample is the client's record of one request.
type sample struct {
	arrival
	Trace    string
	Lag      time.Duration // how late the generator sent it
	ConnWait time.Duration // waiting for one of the client's connections
	Latency  time.Duration // from when it was due to the last response byte
	Code     int
	Body     []byte
	Err      error
}

// loadgen is an open-loop load generator: it sends each request when
// due, whether or not earlier ones have answered, over a client whose
// connections are capped. Latency counts from the due time, so a stall
// charges the wait it imposes on every request queued behind it
// (no coordinated omission).
type loadgen struct {
	client *http.Client
	url    string
	// maxInflight bounds the goroutines of unanswered requests; when it
	// is reached the generator falls behind, which shows as lag.
	maxInflight int
	tr          *tracer
}

// newLoadgen returns a generator posting to url over at most conns
// connections.
func newLoadgen(url string, conns int, tr *tracer) *loadgen {
	return &loadgen{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		}},
		url:         url,
		maxInflight: 1024,
		tr:          tr,
	}
}

// close releases the client's connections.
func (g *loadgen) close() { g.client.CloseIdleConnections() }

// traceID gives request seq of a phase a W3C trace id; the router and
// the replicas propagate it, so every span of one request shares it.
func traceID(phase, seq int) string { return fmt.Sprintf("%016x%016x", phase+1, seq+1) }

// run sends every arrival of sched, body(a) as its JSON payload, and
// returns one sample per arrival, in schedule order, once all have
// answered.
func (g *loadgen) run(phase int, sched []arrival, body func(arrival) []byte) []sample {
	out := make([]sample, len(sched))
	sem := make(chan struct{}, g.maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		s := &out[i]
		s.arrival = a
		s.Trace = traceID(phase, i)
		s.Lag = time.Since(due)
		payload := body(a)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			g.send(s, due, payload)
		}()
	}
	wg.Wait()
	return out
}

// send posts one request and fills its sample.
func (g *loadgen) send(s *sample, due time.Time, payload []byte) {
	var getConn, gotConn time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GetConn: func(string) { getConn = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/v1/explain", bytes.NewReader(payload))
	if err != nil {
		s.Err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", "00-"+s.Trace+"-00000000000000a1-01")
	resp, err := g.client.Do(req)
	if err == nil {
		s.Code = resp.StatusCode
		s.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	s.Err = err
	s.Latency = done.Sub(due)
	if !getConn.IsZero() && !gotConn.IsZero() {
		s.ConnWait = gotConn.Sub(getConn)
	}
	g.tr.record("request", s.Trace, due, done)
}
