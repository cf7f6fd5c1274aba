package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json this package must agree
// with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// ungated are the workloads perfbench runs that BENCHMARK.json leaves
// out: serve-mixed fails its exact-path check until the router forwards
// a request's explainer field.
var ungated = map[string]bool{"serve-mixed": true}

func TestBenchmarkFileNamesWhatRuns(t *testing.T) {
	b := readBenchmarkFile(t)
	var names, gated []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	for _, n := range workloadNames() {
		if !ungated[n] {
			gated = append(gated, n)
		}
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(gated, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, perfbench gates %s", got, want)
	}

	// The untraced run prints exactly the end-to-end metrics, with the
	// units BENCHMARK.json gives them.
	var o outcome
	endToEnd{latencies: []float64{1, 2, 3}}.fill(&o)
	if len(o.metrics) != len(b.EndToEnd) {
		t.Errorf("untraced runs print %d metrics, BENCHMARK.json lists %d end-to-end", len(o.metrics), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		if got, ok := o.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayerUnits) != len(b.PerLayer) {
		t.Errorf("traced runs print %d metrics, BENCHMARK.json lists %d per-layer", len(perLayerUnits), len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s (%s): perfbench has unit %q", m.Name, m.Unit, unit)
		}
	}
}

// The gated serving rate and latency limit are recorded in
// BENCHMARK.json's description of serve-lime; they must be the ones the
// code runs.
func TestBenchmarkFileRecordsServeRateAndLimit(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		if w.Name != serveLIME.name {
			continue
		}
		for _, want := range []string{
			fmt.Sprintf("%g requests/s", serveRate),
			fmt.Sprintf("%d ms", serveLimit/time.Millisecond),
		} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("%s's why %q does not record %q", w.Name, w.Why, want)
			}
		}
		return
	}
	t.Fatal("BENCHMARK.json has no serve-lime workload")
}
