package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/exact"
	"shahin/internal/explain/lime"
	"shahin/internal/explain/shap"
	"shahin/internal/linmodel"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/router"
)

// Benchmark sinks: package-level so the compiler cannot dead-code-
// eliminate the hotpath calls the benchmark bodies exist to measure.
var (
	hotSinkSample   perturb.Sample
	hotSinkFloats   []float64
	hotSinkVec      []float64
	hotSinkBool     bool
	hotSinkSolveErr error
	hotSinkUint64   uint64
	hotSinkInt      int
)

// hotpathBodies builds one benchmark body per //shahin:hotpath
// function in the codebase, keyed by qualified function name. Inputs
// are derived deterministically from seed on the census dataset twin,
// so allocs/op and bytes/op are stable across runs (ns/op is not, and
// is never gated).
func hotpathBodies(seed int64) (map[string]func(n int), error) {
	spec, err := datagen.Spec("census")
	if err != nil {
		return nil, err
	}
	data, err := spec.Generate(600, seed)
	if err != nil {
		return nil, err
	}
	st, err := dataset.Compute(data)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 3))
	gen := perturb.NewGenerator(st, rng)
	p := st.Schema.NumAttrs()
	tuple := data.Rows(0, 1)[0]
	tItems := st.ItemizeRow(tuple, nil)
	// Freeze two spread-out attributes; the pooled sample below is
	// generated from the same itemset so MatchesBins exercises its
	// true (all-match) path, the one the reuse loop takes.
	frozen := dataset.Itemset{tItems[0], tItems[p/2]}
	freeze := make([]bool, p)
	freeze[0], freeze[p/2] = true, true
	pooled := gen.ForItemset(frozen)

	// A well-conditioned SPD system for Solve: A = MᵀM + I.
	const dim = 12
	mrng := rand.New(rand.NewSource(seed + 7))
	m := make([][]float64, 2*dim)
	for i := range m {
		row := make([]float64, dim)
		for j := range row {
			row[j] = mrng.NormFloat64()
		}
		m[i] = row
	}
	sym := linmodel.NewSym(dim)
	for i := 0; i < dim; i++ {
		for j := 0; j <= i; j++ {
			v := 0.0
			for _, row := range m {
				v += row[i] * row[j]
			}
			if i == j {
				v++
			}
			sym.Set(i, j, v)
		}
	}
	rhs := make([]float64, dim)
	for i := range rhs {
		rhs[i] = mrng.NormFloat64()
	}
	if _, err := sym.Solve(rhs); err != nil {
		return nil, fmt.Errorf("bench: hotpath Solve fixture not positive definite: %w", err)
	}

	// The routing hotpaths: a production-shaped ring (3 replicas at the
	// default vnode density) looked up with the fixture tuple's own
	// itemset signature.
	routerRing := router.NewRing(3, router.DefaultVNodes)

	bodies := map[string]func(n int){
		"perturb.(*Generator).ForItemset": func(n int) {
			for i := 0; i < n; i++ {
				hotSinkSample = gen.ForItemset(frozen)
			}
		},
		"perturb.(*Generator).ForTuple": func(n int) {
			for i := 0; i < n; i++ {
				hotSinkSample = gen.ForTuple(tuple, freeze)
			}
		},
		"perturb.BinaryEncode": func(n int) {
			out := make([]float64, p)
			for i := 0; i < n; i++ {
				out = perturb.BinaryEncode(tItems, pooled.Items, out)
			}
			hotSinkVec = out
		},
		"perturb.MatchesBins": func(n int) {
			for i := 0; i < n; i++ {
				hotSinkBool = perturb.MatchesBins(frozen, pooled.Items)
			}
		},
		"linmodel.(*Sym).Solve": func(n int) {
			for i := 0; i < n; i++ {
				hotSinkFloats, hotSinkSolveErr = sym.Solve(rhs)
			}
		},
		"router.Signature": func(n int) {
			for i := 0; i < n; i++ {
				hotSinkUint64 = router.Signature(tItems)
			}
		},
		"router.(*Ring).Lookup": func(n int) {
			ring := routerRing
			sig := router.Signature(tItems)
			for i := 0; i < n; i++ {
				hotSinkInt = ring.Lookup(sig)
			}
		},
	}
	for name, body := range lime.HotpathBenchBodies(p) {
		bodies[name] = body
	}
	for name, body := range exact.HotpathBenchBodies(p) {
		bodies[name] = body
	}
	for name, body := range shap.HotpathBenchBodies(p) {
		bodies[name] = body
	}
	return bodies, nil
}

// HotpathResults measures every //shahin:hotpath function with
// testing.Benchmark under -benchmem semantics and returns the results
// sorted by name. allocs/op and bytes/op are the gated columns;
// ns/op is recorded for context only.
func HotpathResults(seed int64) ([]obs.BenchmarkResult, error) {
	bodies, err := hotpathBodies(seed)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(bodies))
	for name := range bodies {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]obs.BenchmarkResult, 0, len(names))
	for _, name := range names {
		body := bodies[name]
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			body(b.N)
		})
		out = append(out, obs.BenchmarkResult{
			Name:        name,
			Runs:        r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out, nil
}
