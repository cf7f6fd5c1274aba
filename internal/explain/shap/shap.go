// Package shap implements KernelSHAP (Lundberg & Lee, NeurIPS 2017) for
// black-box classifiers over tabular data: sample feature coalitions in
// proportion to the SHAP kernel, impute the complement from the training
// distribution, label the imputed perturbations with the classifier, and
// solve the constrained weighted least squares whose solution approximates
// the Shapley values of each attribute.
//
// The explain.Pool hook implements Algorithm 3 of the Shahin paper: when a
// sampled coalition is a superset of a cached frequent itemset the tuple
// contains, an already-labelled pooled perturbation is consumed instead of
// invoking the classifier.
package shap

import (
	"fmt"
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/perturb"
	"shahin/internal/rf"
	"shahin/internal/sample"
)

// Config controls a KernelSHAP explainer.
type Config struct {
	// NumSamples is the number of sampled coalitions M (default 1024).
	NumSamples int
	// BaseSamples is how many empty-coalition perturbations estimate the
	// base rate E[f] (default 100).
	BaseSamples int
	// Ridge is a tiny stabiliser added to the WLS normal matrix diagonal
	// (default 1e-6).
	Ridge float64
	// MaxReuse caps the fraction of the coalition budget served from the
	// pool (default 0.9). A fresh remainder keeps coalition diversity.
	MaxReuse float64
	// UniformSizes disables the SHAP-kernel-proportional coalition size
	// sampling (Equation 1) in favour of uniform sizes. Exists for the
	// A2 ablation; keep it off in production.
	UniformSizes bool
}

func (c Config) fill() Config {
	if c.NumSamples <= 0 {
		c.NumSamples = 1024
	}
	if c.BaseSamples <= 0 {
		c.BaseSamples = 100
	}
	if c.Ridge <= 0 {
		c.Ridge = 1e-6
	}
	if c.MaxReuse <= 0 || c.MaxReuse > 1 {
		c.MaxReuse = 0.9
	}
	return c
}

// Explainer computes Shapley-value attributions. It is not safe for
// concurrent use.
type Explainer struct {
	cfg Config
	st  *dataset.Stats
	cls rf.Classifier
	gen *perturb.Generator
	rng *rand.Rand

	sizeSampler *sample.Alias // coalition sizes 1..m-1 ∝ SHAP kernel mass

	// baseRate caches E[1{C(x)=class}] under the product marginal: a
	// tuple-independent invariant (paper §3.4), computed once per class.
	baseRate  []float64
	haveBase  []bool
	basePulls int64 // classifier invocations spent on base rates

	// Per-explanation scratch, reused so steady-state sampling does not
	// allocate: the coalition storage and normal equations, the dense
	// permutation coalition draws shuffle, the frozen-attribute flags,
	// and the required itemset handed to the pool.
	coal     coalitions
	perm     []int
	freeze   []bool
	required dataset.Itemset
}

// New builds a KernelSHAP explainer.
func New(st *dataset.Stats, cls rf.Classifier, cfg Config, rng *rand.Rand) *Explainer {
	m := st.Schema.NumAttrs()
	e := &Explainer{
		cfg:      cfg.fill(),
		st:       st,
		cls:      cls,
		gen:      perturb.NewGenerator(st, rng),
		rng:      rng,
		baseRate: make([]float64, cls.NumClasses()),
		haveBase: make([]bool, cls.NumClasses()),
		perm:     make([]int, m),
		freeze:   make([]bool, m),
		required: make(dataset.Itemset, 0, m),
	}
	if m >= 2 {
		// P(|S| = s) ∝ π(m,s)·C(m,s) = (m-1)/(s(m-s)); this is the
		// "sample coalition sizes by kernel weight" optimisation the paper
		// adopts (Equation 1). The uniform alternative exists only for
		// the ablation study.
		w := make([]float64, m-1)
		for s := 1; s < m; s++ {
			if e.cfg.UniformSizes {
				w[s-1] = 1
			} else {
				w[s-1] = float64(m-1) / (float64(s) * float64(m-s))
			}
		}
		e.sizeSampler = sample.MustAlias(w)
	}
	return e
}

// KernelWeight returns the SHAP kernel π(m, s) from Equation 1 of the
// paper, for subset size s of m features.
func KernelWeight(m, s int) float64 {
	if s <= 0 || s >= m {
		return 0
	}
	return float64(m-1) / (binom(m, s) * float64(s) * float64(m-s))
}

func binom(n, k int) float64 {
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

// Explain computes the attribution for t without reuse.
func (e *Explainer) Explain(t []float64) (*explain.Attribution, error) {
	return e.ExplainWithPool(t, nil)
}

// ExplainWithPool computes the attribution for t, consuming pooled
// perturbations where a sampled coalition admits one.
func (e *Explainer) ExplainWithPool(t []float64, pool explain.Pool) (*explain.Attribution, error) {
	m := e.st.Schema.NumAttrs()
	if len(t) != m {
		return nil, fmt.Errorf("shap: tuple has %d attributes want %d", len(t), m)
	}
	if m < 2 {
		return nil, fmt.Errorf("shap: need at least 2 attributes, have %d", m)
	}
	target := e.cls.Predict(t)
	tItems := e.st.ItemizeRow(t, nil)
	phi0 := e.base(target)
	const fx = 1.0 // f(t) = 1{C(t)=target} by construction

	// Algorithm 3, lines 7–8: pooled perturbations of frequent itemsets
	// the tuple contains fill the budget first, already labelled.
	var pooled []perturb.Sample
	if pool != nil {
		maxReuse := int(e.cfg.MaxReuse * float64(e.cfg.NumSamples))
		pooled = pool.ForTuple(tItems, maxReuse)
	}
	c := &e.coal
	c.reset(m, max(e.cfg.NumSamples, len(pooled)))
	for _, s := range pooled {
		c.add(tItems, s.Items, s.Label == target)
	}

	// Remaining budget: sample coalition sizes by SHAP-kernel mass, and
	// before paying a classifier call check whether the coalition is a
	// superset of a pooled itemset with a matching cached perturbation
	// (Algorithm 3, lines 9–13).
	for c.n < e.cfg.NumSamples {
		size := 1 + e.sizeSampler.Draw(e.rng)
		drawSubset(e.rng, e.perm, e.freeze, size)
		e.required = e.required[:0]
		for a, frozen := range e.freeze {
			if frozen {
				e.required = append(e.required, tItems[a])
			}
		}

		if pool != nil {
			if got := pool.ForItemset(e.required, 1); len(got) == 1 {
				c.add(tItems, got[0].Items, got[0].Label == target)
				continue
			}
		}
		s := e.gen.ForTuple(t, e.freeze)
		s.Label = e.cls.Predict(s.Row)
		if obs, ok := pool.(explain.Observer); ok {
			obs.Observe(s)
		}
		c.add(tItems, s.Items, s.Label == target)
	}

	phi, err := c.solve(phi0, fx, e.cfg.Ridge)
	if err != nil {
		return nil, fmt.Errorf("shap: %w", err)
	}
	return &explain.Attribution{Weights: phi, Intercept: phi0, Class: target}, nil
}

// base returns the cached base rate for a class, measuring it on first
// use with BaseSamples empty-coalition perturbations.
func (e *Explainer) base(class int) float64 {
	if e.haveBase[class] {
		return e.baseRate[class]
	}
	hits := 0
	for i := 0; i < e.cfg.BaseSamples; i++ {
		s := e.gen.ForItemset(nil)
		if e.cls.Predict(s.Row) == class {
			hits++
		}
		e.basePulls++
	}
	e.baseRate[class] = float64(hits) / float64(e.cfg.BaseSamples)
	e.haveBase[class] = true
	return e.baseRate[class]
}

// BaseInvocations reports the classifier calls spent estimating base
// rates (for overhead accounting).
func (e *Explainer) BaseInvocations() int64 { return e.basePulls }
