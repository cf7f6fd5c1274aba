package shap

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/linmodel"
	"shahin/internal/perturb"
	"shahin/internal/rf"
	"shahin/internal/sample"
)

func env(t *testing.T, seed int64) *dataset.Stats {
	t.Helper()
	cfg := &datagen.Config{
		Name: "st",
		Cat:  []datagen.CatSpec{{Card: 4, Skew: 1}, {Card: 3, Skew: 0.5}, {Card: 5, Skew: 1.2}},
		Num:  []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(3000, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func attr0Classifier(v int) rf.Classifier {
	return rf.Func{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == v {
			return 1
		}
		return 0
	}}
}

func TestKernelWeight(t *testing.T) {
	// Symmetric in s <-> m-s and larger at the extremes.
	m := 10
	for s := 1; s < m; s++ {
		if math.Abs(KernelWeight(m, s)-KernelWeight(m, m-s)) > 1e-12 {
			t.Fatalf("kernel not symmetric at s=%d", s)
		}
	}
	if KernelWeight(m, 1) <= KernelWeight(m, 5) {
		t.Fatal("kernel should prefer extreme subset sizes")
	}
	if KernelWeight(m, 0) != 0 || KernelWeight(m, m) != 0 {
		t.Fatal("kernel must be 0 at s=0 and s=m")
	}
}

func TestExplainErrors(t *testing.T) {
	st := env(t, 1)
	e := New(st, attr0Classifier(0), Config{NumSamples: 50, BaseSamples: 20}, rand.New(rand.NewSource(2)))
	if _, err := e.Explain([]float64{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

// Efficiency: phi0 + sum(phi) must equal f(t) = 1 exactly (the constraint
// is enforced algebraically).
func TestAdditivity(t *testing.T) {
	st := env(t, 3)
	e := New(st, attr0Classifier(1), Config{NumSamples: 300, BaseSamples: 50}, rand.New(rand.NewSource(4)))
	att, err := e.Explain([]float64{1, 0, 2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sum := att.Intercept
	for _, w := range att.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("phi0 + sum(phi) = %g want 1", sum)
	}
}

func TestDecisiveFeatureDominates(t *testing.T) {
	st := env(t, 5)
	e := New(st, attr0Classifier(2), Config{NumSamples: 2000, BaseSamples: 200}, rand.New(rand.NewSource(6)))
	att, err := e.Explain([]float64{2, 1, 3, -0.2})
	if err != nil {
		t.Fatal(err)
	}
	if top := att.Ranking()[0]; top != 0 {
		t.Fatalf("top feature=%d want 0 (phi=%v)", top, att.Weights)
	}
	if att.Weights[0] <= 0 {
		t.Fatalf("decisive phi=%g should be positive", att.Weights[0])
	}
	// phi_0 should approximate 1 - baseRate (all credit to attr 0).
	want := 1 - att.Intercept
	if math.Abs(att.Weights[0]-want) > 0.15 {
		t.Fatalf("phi[0]=%g want ~%g", att.Weights[0], want)
	}
}

func TestBaseRateCachedAcrossExplanations(t *testing.T) {
	st := env(t, 7)
	counting := rf.NewCounting(attr0Classifier(1))
	e := New(st, counting, Config{NumSamples: 100, BaseSamples: 50}, rand.New(rand.NewSource(8)))
	tup := []float64{1, 0, 2, 0.5}
	if _, err := e.Explain(tup); err != nil {
		t.Fatal(err)
	}
	first := counting.Invocations()
	if _, err := e.Explain(tup); err != nil {
		t.Fatal(err)
	}
	second := counting.Invocations() - first
	// The second explanation must not pay the BaseSamples cost again.
	if second > first-int64(40) {
		t.Fatalf("base rate not cached: first=%d second=%d", first, second)
	}
	if e.BaseInvocations() != 50 {
		t.Fatalf("BaseInvocations=%d want 50", e.BaseInvocations())
	}
}

// subsetPool answers ForItemset with a pre-labelled sample when the
// required items match a stocked itemset exactly or as a subset.
type subsetPool struct {
	st     *dataset.Stats
	cls    rf.Classifier
	gen    *perturb.Generator
	stock  [][]perturb.Sample // ordered, so serving order is deterministic
	serves int
}

func (p *subsetPool) ForTuple(tupleItems []dataset.Item, max int) []perturb.Sample { return nil }

func (p *subsetPool) ForItemset(required dataset.Itemset, max int) []perturb.Sample {
	var out []perturb.Sample
	for _, samples := range p.stock {
		for i := range samples {
			if len(out) >= max {
				return out
			}
			if perturb.MatchesBins(required, samples[i].Items) {
				out = append(out, samples[i])
				p.serves++
			}
		}
	}
	return out
}

func TestExplainWithPoolSavesInvocations(t *testing.T) {
	st := env(t, 9)
	cls := attr0Classifier(2)
	tup := []float64{2, 1, 0, 0.0}
	tItems := st.ItemizeRow(tup, nil)

	// Stock the pool with many samples frozen on the tuple's attr-0 item:
	// single-attribute coalitions {0} will hit them, and larger coalitions
	// may match by chance.
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(10)))
	frozen := dataset.Itemset{tItems[0]}
	samples := make([]perturb.Sample, 2000)
	for i := range samples {
		s := gen.ForItemset(frozen)
		s.Label = cls.Predict(s.Row)
		samples[i] = s
	}
	pool := &subsetPool{
		st:    st,
		cls:   cls,
		stock: [][]perturb.Sample{samples},
	}

	counting := rf.NewCounting(cls)
	e := New(st, counting, Config{NumSamples: 600, BaseSamples: 50}, rand.New(rand.NewSource(11)))
	att, err := e.ExplainWithPool(tup, pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.serves == 0 {
		t.Fatal("pool never served a sample")
	}
	// Invocations = 1 (tuple) + 50 (base) + fresh coalitions < 600.
	if got := counting.Invocations(); got >= 600+51 {
		t.Fatalf("invocations=%d; reuse saved nothing", got)
	}
	if top := att.Ranking()[0]; top != 0 {
		t.Fatalf("top feature with pool=%d want 0", top)
	}
	// Additivity must survive reuse.
	sum := att.Intercept
	for _, w := range att.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("additivity broken with pool: %g", sum)
	}
}

func TestExplainDeterministic(t *testing.T) {
	st := env(t, 12)
	tup := []float64{1, 0, 2, 0.3}
	a, err := New(st, attr0Classifier(1), Config{NumSamples: 200, BaseSamples: 30}, rand.New(rand.NewSource(13))).Explain(tup)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(st, attr0Classifier(1), Config{NumSamples: 200, BaseSamples: 30}, rand.New(rand.NewSource(13))).Explain(tup)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("same-seed SHAP explanations differ")
		}
	}
}

func BenchmarkExplainSequential(b *testing.B) {
	cfg := &datagen.Config{
		Name: "sb",
		Cat:  []datagen.CatSpec{{Card: 4, Skew: 1}, {Card: 3, Skew: 0.5}},
		Num:  []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(2000, 14)
	if err != nil {
		b.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	e := New(st, attr0Classifier(1), Config{NumSamples: 500, BaseSamples: 50}, rand.New(rand.NewSource(15)))
	tup := []float64{1, 0, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(tup); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceSolve is the per-sample KernelSHAP solver the bit-packed
// kernel replaced, kept verbatim as the differential oracle: one []bool
// mask per sample, the Gram matrix and right-hand side accumulated one
// ±1 product at a time, then the same ridge, Cholesky and efficiency
// constraint.
func referenceSolve(masks [][]bool, ys []float64, phi0, fx, ridge float64) ([]float64, error) {
	if len(masks) == 0 {
		return nil, fmt.Errorf("no coalition samples")
	}
	m := len(masks[0])
	p := m - 1
	A := linmodel.NewSym(p)
	bvec := make([]float64, p)
	feat := make([]float64, p)
	for i, mask := range masks {
		zm := 0.0
		if mask[m-1] {
			zm = 1
		}
		for j := 0; j < p; j++ {
			zj := 0.0
			if mask[j] {
				zj = 1
			}
			feat[j] = zj - zm
		}
		target := ys[i] - phi0 - zm*(fx-phi0)
		for j := 0; j < p; j++ {
			if feat[j] == 0 {
				continue
			}
			bvec[j] += feat[j] * target
			for k := 0; k <= j; k++ {
				if feat[k] != 0 {
					A.Add(j, k, feat[j]*feat[k])
				}
			}
		}
	}
	scale := A.MaxDiag()
	if scale == 0 {
		scale = 1
	}
	for j := 0; j < p; j++ {
		A.Add(j, j, ridge*scale)
	}
	head, err := A.Solve(bvec)
	if err != nil {
		return nil, err
	}
	phi := make([]float64, m)
	copy(phi, head)
	last := fx - phi0
	for _, v := range head {
		last -= v
	}
	phi[m-1] = last
	return phi, nil
}

// fillCoalitions loads masks and labels into c through the production
// add path: the tuple's items are all zero and a sample disagrees on
// attribute a by carrying item 1 there.
func fillCoalitions(c *coalitions, masks [][]bool, ys []float64) {
	m := len(masks[0])
	tItems := make([]dataset.Item, m)
	items := make([]dataset.Item, m)
	c.reset(m, len(masks))
	for i, mask := range masks {
		for a, in := range mask {
			items[a] = 0
			if !in {
				items[a] = 1
			}
		}
		c.add(tItems, items, ys[i] == 1)
	}
}

// checkAgainstReference asserts the bit-packed solve returns the
// reference solver's phi bit for bit, or fails exactly when it does.
func checkAgainstReference(t *testing.T, c *coalitions, masks [][]bool, ys []float64, phi0 float64) {
	t.Helper()
	const fx, ridge = 1.0, 1e-6
	want, werr := referenceSolve(masks, ys, phi0, fx, ridge)
	fillCoalitions(c, masks, ys)
	got, gerr := c.solve(phi0, fx, ridge)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("error mismatch: reference %v, packed %v", werr, gerr)
	}
	if werr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("phi has %d entries want %d", len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("phi[%d] = %v (%#x) want %v (%#x)", j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestPackedSolveMatchesReference: on random coalitions the popcount
// Gram build returns the per-sample solver's phi bit for bit, across
// sample counts on and off word boundaries, all-zero and all-one
// columns (the eliminated last column included), m = 2 and m > 64. One
// coalitions value serves every case, so reuse across shapes and the
// same-shape reset are exercised too.
func TestPackedSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := &coalitions{}
	for _, tc := range []struct{ m, n int }{
		{2, 1}, {2, 2}, {2, 63}, {2, 64}, {2, 65},
		{3, 127}, {5, 128}, {8, 129},
		{42, 200}, {42, 256}, {42, 256},
		{65, 300}, {70, 130}, {100, 321},
	} {
		for _, density := range []float64{0.5, 0.1, 0.9} {
			masks := make([][]bool, tc.n)
			ys := make([]float64, tc.n)
			for i := range masks {
				masks[i] = make([]bool, tc.m)
				for a := range masks[i] {
					masks[i][a] = rng.Float64() < density
				}
				if rng.Intn(2) == 0 {
					ys[i] = 1
				}
			}
			// Force constant columns: attribute 0 all-zero, the middle
			// attribute all-one, and on odd n the eliminated last
			// column constant too.
			for i := range masks {
				masks[i][0] = false
				masks[i][tc.m/2] = true
				if tc.n%2 == 1 {
					masks[i][tc.m-1] = tc.n%4 == 1
				}
			}
			phi0 := rng.Float64()
			t.Run(fmt.Sprintf("m%d_n%d_d%.1f", tc.m, tc.n, density), func(t *testing.T) {
				checkAgainstReference(t, c, masks, ys, phi0)
			})
		}
	}
}

// FuzzSolveConstrained drives the differential check from arbitrary
// bytes: m in [2, 80], n in [1, 300], mask and label bits read
// cyclically from data (empty data is the all-disagree coalition set).
func FuzzSolveConstrained(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(0), []byte{})
	f.Add(uint8(40), uint16(255), uint16(20000), []byte{0x5a, 0xc3, 0x0f})
	f.Add(uint8(68), uint16(64), uint16(65535), []byte{0xff})
	f.Add(uint8(3), uint16(129), uint16(1), []byte{0x00, 0xff, 0x81})
	c := &coalitions{}
	f.Fuzz(func(t *testing.T, mRaw uint8, nRaw, phiRaw uint16, data []byte) {
		m := 2 + int(mRaw)%79
		n := 1 + int(nRaw)%300
		bit := func(k int) bool {
			if len(data) == 0 {
				return false
			}
			return data[(k/8)%len(data)]>>(k%8)&1 == 1
		}
		masks := make([][]bool, n)
		ys := make([]float64, n)
		for i := range masks {
			masks[i] = make([]bool, m)
			for a := range masks[i] {
				masks[i][a] = bit(i*(m+1) + a)
			}
			if bit(i*(m+1) + m) {
				ys[i] = 1
			}
		}
		checkAgainstReference(t, c, masks, ys, float64(phiRaw)/65535)
	})
}

// TestDrawSubsetMatchesUniformIndices: for the same seed the dense
// partial Fisher–Yates marks exactly the sorted index set
// sample.UniformIndices + sort.Ints returns, and leaves the generator in
// the same state, over every coalition size 1..m-1 and across repeated
// draws sharing the scratch permutation.
func TestDrawSubsetMatchesUniformIndices(t *testing.T) {
	for _, m := range []int{2, 3, 7, 42, 100} {
		perm := make([]int, m)
		freeze := make([]bool, m)
		for seed := int64(1); seed <= 5; seed++ {
			ra := rand.New(rand.NewSource(seed))
			rb := rand.New(rand.NewSource(seed))
			for size := 1; size < m; size++ {
				want := sample.UniformIndices(ra, m, size)
				sort.Ints(want)
				drawSubset(rb, perm, freeze, size)
				var got []int
				for a, f := range freeze {
					if f {
						got = append(got, a)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("m=%d seed=%d size=%d: drew %v want %v", m, seed, size, got, want)
				}
			}
			if a, b := ra.Int63(), rb.Int63(); a != b {
				t.Fatalf("m=%d seed=%d: generator states diverged (%d vs %d)", m, seed, a, b)
			}
		}
	}
}

// BenchmarkExplainWithPoolCensus measures one KernelSHAP explanation at
// the batch workloads' budget (256 coalitions) on the census twin with
// a small forest, the pool stocked for the tuple's first attribute.
func BenchmarkExplainWithPoolCensus(b *testing.B) {
	spec, err := datagen.Spec("census")
	if err != nil {
		b.Fatal(err)
	}
	d, err := spec.Generate(2000, 16)
	if err != nil {
		b.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	forest, err := rf.Train(d, rf.Config{NumTrees: 10, MaxDepth: 8, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	tup := d.Rows(0, 1)[0]
	frozen := dataset.Itemset{st.ItemizeRow(tup, nil)[0]}
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(18)))
	samples := make([]perturb.Sample, 256)
	for i := range samples {
		s := gen.ForItemset(frozen)
		s.Label = forest.Predict(s.Row)
		samples[i] = s
	}
	pool := &subsetPool{st: st, cls: forest, stock: [][]perturb.Sample{samples}}
	e := New(st, forest, Config{NumSamples: 256, BaseSamples: 50}, rand.New(rand.NewSource(19)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExplainWithPool(tup, pool); err != nil {
			b.Fatal(err)
		}
	}
}
