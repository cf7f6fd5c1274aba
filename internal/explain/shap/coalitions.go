package shap

import (
	"fmt"
	"math/rand"

	"shahin/internal/bitset"
	"shahin/internal/dataset"
	"shahin/internal/linmodel"
)

// coalitions holds one explanation's sampled coalitions column-wise, in
// the form the constrained regression consumes. The constraint
// eliminates the last attribute m, so the reduced regression has one
// feature per remaining attribute j with value z_j − z_m ∈ {−1, 0, +1}.
// diff[j] has bit i set when that feature is nonzero for sample i, i.e.
// when z_ij ≠ z_im; code[i] packs the two bits the nonzero value and the
// regression target depend on, 2·z_im + y_i.
//
// The storage is reused across explanations: reset keeps the bitsets
// and the normal-equation buffers when the shape is unchanged.
type coalitions struct {
	diff []*bitset.Set // one per attribute 0..m-2, capacity len(code)
	code []uint8       // per sample: 2·z_m + y
	n    int           // samples added since reset

	gram *linmodel.Sym // (m−1)×(m−1) normal matrix
	rhs  []float64     // normal-equation right-hand side
}

// reset empties the storage for up to n samples over m attributes.
func (c *coalitions) reset(m, n int) {
	p := m - 1
	if len(c.diff) != p || len(c.code) != n {
		c.diff = make([]*bitset.Set, p)
		for j := range c.diff {
			c.diff[j] = bitset.New(n)
		}
		c.code = make([]uint8, n)
		c.gram = linmodel.NewSym(p)
		c.rhs = make([]float64, p)
	} else {
		for _, d := range c.diff {
			d.Reset()
		}
	}
	c.n = 0
}

// add records one labelled sample. Coalition membership follows the
// bin-agreement convention for discretised tabular data: z_a = 1 when
// the sample agrees with the tuple's bin on attribute a, whether because
// a was frozen or because the imputed value landed in the same bin. This
// makes pooled and fresh samples exchangeable. hit is y = 1{label =
// explained class}.
func (c *coalitions) add(tItems, items []dataset.Item, hit bool) {
	i := c.n
	last := len(tItems) - 1
	zm := items[last] == tItems[last]
	for j, d := range c.diff {
		d.Assign(i, (items[j] == tItems[j]) != zm)
	}
	var code uint8
	if zm {
		code = 2
	}
	if hit {
		code++
	}
	c.code[i] = code
	c.n++
}

// normalEquations fills gram and rhs with the normal equations of the
// reduced regression over the samples added so far.
//
// Within one sample every nonzero reduced feature has the same sign (+1
// when z_m = 0, −1 when z_m = 1), so each product z'_j·z'_k is 0 or +1
// and the Gram entry is a count: A[j][k] = |diff_j ∧ diff_k|. Split by
// z_m that is |P_j∧P_k| + |N_j∧N_k| with P = diff ∧ ¬z_m and N = diff ∧
// z_m; the cross terms are empty, so one popcount per word suffices.
// Integer counts are exact in float64, so A equals the per-sample ±1
// float sum bit for bit. b_j sums z'_j·target_i over the set bits of
// diff_j in ascending sample order; the product takes one of four
// values, computed once with the per-sample expression, so b_j too is
// the same sequence of additions as a per-sample loop.
//
//shahin:hotpath
func (c *coalitions) normalEquations(phi0, fx float64) {
	var contrib [4]float64 // indexed by code = 2·z_m + y
	for code := range contrib {
		zm := float64(code >> 1)
		y := float64(code & 1)
		feat := 1 - 2*zm // z_j − z_m for a nonzero feature
		contrib[code] = feat * (y - phi0 - zm*(fx-phi0))
	}
	for j, dj := range c.diff {
		sum := 0.0
		for i := dj.NextSet(0); i >= 0; i = dj.NextSet(i + 1) {
			sum += contrib[c.code[i]]
		}
		c.rhs[j] = sum
		for k := 0; k <= j; k++ {
			c.gram.Set(j, k, float64(bitset.AndCount(dj, c.diff[k])))
		}
	}
}

// solve solves the KernelSHAP regression over the added samples
//
//	y_i ≈ φ0 + Σ_j φ_j z_ij   subject to   Σ_j φ_j = fx − φ0
//
// with unit sample weights (the kernel is folded into the coalition
// sampling distribution). The constraint is enforced by eliminating the
// last feature, leaving an (m−1)-dimensional ordinary least squares that
// is solved via Cholesky with a tiny ridge scaled by the largest
// diagonal entry.
func (c *coalitions) solve(phi0, fx, ridge float64) ([]float64, error) {
	if c.n == 0 {
		return nil, fmt.Errorf("no coalition samples")
	}
	c.normalEquations(phi0, fx)
	A := c.gram
	scale := A.MaxDiag()
	if scale == 0 {
		scale = 1
	}
	for j := range c.rhs {
		A.Add(j, j, ridge*scale)
	}
	head, err := A.Solve(c.rhs)
	if err != nil {
		return nil, err
	}
	phi := make([]float64, len(head)+1)
	copy(phi, head)
	last := fx - phi0
	for _, v := range head {
		last -= v
	}
	phi[len(head)] = last
	return phi, nil
}

// drawSubset marks a uniformly drawn size-subset of the len(perm)
// attributes in freeze, overwriting perm and freeze. It is the dense
// form of sample.UniformIndices(rng, len(perm), size): the same partial
// Fisher–Yates with the same rng.Intn calls in the same order, over a
// scratch permutation instead of a map. For size < len(perm) — every
// coalition size KernelSHAP draws — it marks exactly the index set
// UniformIndices returns and leaves rng in the same state.
func drawSubset(rng *rand.Rand, perm []int, freeze []bool, size int) {
	m := len(perm)
	for a := range perm {
		perm[a] = a
		freeze[a] = false
	}
	for i := 0; i < size; i++ {
		j := i + rng.Intn(m-i)
		perm[i], perm[j] = perm[j], perm[i]
		freeze[perm[i]] = true
	}
}
