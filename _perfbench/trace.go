package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"shahin/internal/rf"
)

// meter is the benchmark's classifier wrapper: while on, it counts
// Predict calls and the time spent inside them. It exposes Inner so
// structure-aware explainers (exact TreeSHAP) still reach the forest;
// without it exact requests would silently fall back to KernelSHAP.
type meter struct {
	inner rf.Classifier
	on    atomic.Bool
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
	// slowdown > 1 stretches every metered call to that multiple of its
	// own duration; tests plant it to check the layer table charges the
	// extra time to rf.
	slowdown float64
}

func newMeter(inner rf.Classifier) *meter { return &meter{inner: inner} }

// NumClasses implements rf.Classifier.
func (m *meter) NumClasses() int { return m.inner.NumClasses() }

// Inner returns the wrapped classifier.
func (m *meter) Inner() rf.Classifier { return m.inner }

// Predict implements rf.Classifier.
func (m *meter) Predict(x []float64) int {
	if !m.on.Load() {
		return m.inner.Predict(x)
	}
	start := time.Now()
	y := m.inner.Predict(x)
	if m.slowdown > 1 {
		spinUntil(start.Add(time.Duration(float64(time.Since(start)) * m.slowdown)))
	}
	m.busy.Add(int64(time.Since(start)))
	m.calls.Add(1)
	return y
}

// snapshot reads the counters.
func (m *meter) snapshot() meterSnap {
	return meterSnap{calls: m.calls.Load(), busy: time.Duration(m.busy.Load())}
}

// meterSnap is a point-in-time reading of a meter.
type meterSnap struct {
	calls int64
	busy  time.Duration
}

func (a meterSnap) sub(b meterSnap) meterSnap {
	return meterSnap{calls: a.calls - b.calls, busy: a.busy - b.busy}
}

// spinUntil busy-waits: a sleep would round sub-microsecond stretches
// up to the timer granularity.
func spinUntil(t time.Time) {
	for time.Now().Before(t) {
	}
}

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent links a span to the one that caused it.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func (s span) durMS() float64 { return s.EndMS - s.StartMS }

// tracer keeps the benchmark's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span; it does nothing while the tracer is
// off or nil. Parents are linked when the spans are dumped.
func (t *tracer) record(name, trace string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{ID: t.next.Add(1), Trace: trace, Name: name,
		StartMS: ms(start.Sub(t.epoch)), EndMS: ms(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanLevels orders a request's spans from the outside in; spans of
// other names (batch and stream calls) are roots.
var spanLevels = map[string]int{"request": 0, "router": 1, "forward": 2, "replica": 3}

// linkParents sets each request span's Parent to the span one level out
// in the same trace whose interval contains it, the latest-starting one
// when several do, so a replica handler hangs off the forward attempt
// that reached it.
func linkParents(spans []span) {
	byTrace := make(map[string][]int)
	for i, s := range spans {
		if _, ok := spanLevels[s.Name]; ok {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	for _, idx := range byTrace {
		for _, i := range idx {
			c, best := &spans[i], -1
			for _, j := range idx {
				p := spans[j]
				if spanLevels[p.Name] == spanLevels[c.Name]-1 && p.StartMS <= c.StartMS && p.EndMS >= c.EndMS &&
					(best < 0 || p.StartMS > spans[best].StartMS) {
					best = j
				}
			}
			if best >= 0 {
				c.Parent = spans[best].ID
			}
		}
	}
}

// dump writes the spans, parents linked, as a JSON array.
func (t *tracer) dump(path string) error {
	spans := t.all()
	linkParents(spans)
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// reconcileTolerance bounds the unattributed "other" row of a layer
// table as a share of the traced end-to-end figure.
const reconcileTolerance = 0.10

// layerTable splits a traced end-to-end figure into per-layer self
// times. Rows are measured independently (wrapper clocks, span
// differences, the Report's stage clocks); "other" is what none of
// them covers.
type layerTable struct {
	title string
	unit  string
	e2e   float64
	rows  []layerRow
}

type layerRow struct {
	layer string
	self  float64
	what  string
}

func (t *layerTable) add(layer string, self float64, what string) {
	t.rows = append(t.rows, layerRow{layer: layer, self: self, what: what})
}

// other is the end-to-end figure no row accounts for.
func (t *layerTable) other() float64 {
	s := t.e2e
	for _, r := range t.rows {
		s -= r.self
	}
	return s
}

// self returns a row's self time (0 when absent).
func (t *layerTable) self(layer string) float64 {
	for _, r := range t.rows {
		if r.layer == layer {
			return r.self
		}
	}
	return 0
}

// check records a violation when a row is negative beyond rounding or
// the rows and "other" fail to reconcile within reconcileTolerance.
func (t *layerTable) check(o *outcome) {
	slack := 0.005 * t.e2e
	for _, r := range t.rows {
		if r.self < -slack {
			o.violate("layer table: %s self time %.3f %s is negative", r.layer, r.self, t.unit)
		}
	}
	if oth := t.other(); oth > reconcileTolerance*t.e2e || oth < -reconcileTolerance*t.e2e {
		o.violate("layer table: rows leave %.3f %s of %.3f unattributed (tolerance %.0f%%)",
			oth, t.unit, t.e2e, 100*reconcileTolerance)
	}
}

// print adds the table to o's notes.
func (t *layerTable) print(o *outcome) {
	o.note("layer table: %s (%s)", t.title, t.unit)
	for _, r := range t.rows {
		o.note("  %-10s %12.3f  %5.1f%%  %s", r.layer, r.self, 100*ratio(r.self, t.e2e), r.what)
	}
	oth := t.other()
	o.note("  %-10s %12.3f  %5.1f%%  %s", "other", oth, 100*ratio(oth, t.e2e), "not covered by any row")
	o.note("  %-10s %12.3f  100.0%%  traced end to end; reconciles within %.0f%%", "total", t.e2e, 100*reconcileTolerance)
}

// overhead prints and records the tracing overhead: how much slower
// the traced phase ran per item than the untraced one.
func overhead(o *outcome, untracedPerItem, tracedPerItem float64, unit string) {
	share := ratio(tracedPerItem, untracedPerItem) - 1
	o.note("tracing overhead: %.4g %s per item untraced, %.4g traced (%+.1f%%)",
		untracedPerItem, unit, tracedPerItem, 100*share)
	o.set("tracing.overhead", share, "share")
}
