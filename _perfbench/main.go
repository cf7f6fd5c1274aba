// Command perfbench is the repository's benchmark. It runs one named
// workload against the system through its public Go API and HTTP
// handlers, checks every answer, and prints every end-to-end metric by
// name with its unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload batch-shap --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the same workload twice in one process, first with the
// benchmark's wrappers off and then on, and prints the per-layer table
// and per-layer metrics instead; --sweep steps a serving workload
// through fixed offered rates. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// spansOut, when set, receives the traced run's span dump.
	spansOut string
}

// outcome is what a workload reports back: its counts, the output
// checks that failed, and its metrics.
type outcome struct {
	attempted  int
	failed     int
	violations []string
	metrics    map[string]metric
	// notes are human-readable lines printed above the result line
	// (sample counts behind tail percentiles, the layer table).
	notes []string
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, value float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: value, Unit: unit}
}

// workload runs one named workload. traced selects the per-layer run.
type workload func(cfg runConfig, traced bool) (*outcome, error)

var workloads = map[string]workload{
	"batch-shap":         runBatchSHAP,
	"batch-anchor-paper": runBatchAnchor,
	"stream-lime-drift":  runStreamLIME,
	"serve-mixed":        serveWorkload(serveMixed),
	"serve-lime":         serveWorkload(serveLIME),
}

// serveSpecs are the workloads --sweep accepts.
var serveSpecs = map[string]serveSpec{serveMixed.name: serveMixed, serveLIME.name: serveLIME}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "workload seed: decides the tuples, the request mix and the arrival schedule")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase in seconds")
		trace    = fs.Int("trace", 0, "1 prints the per-layer table and metrics instead of the end-to-end metrics")
		sweep    = fs.Bool("sweep", false, "serve-mixed and serve-lime only: step through fixed offered rates and report the highest that meets the latency limit")
		spansOut = fs.String("spans-out", "", "traced runs: write the span dump to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), spansOut: *spansOut}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *sweep {
		spec, ok := serveSpecs[*name]
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: --sweep applies to serve-mixed and serve-lime only")
			return 2
		}
		if err := runSweep(cfg, spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	out, err := wl(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(os.Stdout, out)
}

// report prints the notes, every metric by name with its unit, and the
// result line; it returns the exit code: 1 when any output check
// failed.
func report(w *os.File, out *outcome) int {
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(w, "%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, v := range out.violations {
		fmt.Fprintln(w, "CHECK FAILED:", v)
	}
	res := result{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if res.Attempted < 1 {
		res.Correct = false
		fmt.Fprintln(w, "CHECK FAILED: nothing was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
