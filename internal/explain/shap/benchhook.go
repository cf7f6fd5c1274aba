package shap

import "shahin/internal/dataset"

// benchSamples is the coalition count of the benchmark fixture: the
// budget the batch workloads run KernelSHAP with, four words per column.
const benchSamples = 256

// HotpathBenchBodies returns benchmark bodies for this package's
// //shahin:hotpath functions, keyed by qualified function name. The
// normal-equation kernel is unexported (the coalition storage is an
// implementation detail of the surrogate solve), so the allocation-
// benchmark harness in internal/bench reaches it through this hook. p is
// the attribute count of the synthetic coalitions; each body runs its
// function n times.
func HotpathBenchBodies(p int) map[string]func(n int) {
	if p < 2 {
		p = 2
	}
	// A fixed agreement pattern of roughly 4/7 density: a
	// deterministic fixture, so allocs/op and bytes/op are stable.
	tItems := make([]dataset.Item, p)
	items := make([]dataset.Item, p)
	c := &coalitions{}
	c.reset(p, benchSamples)
	for i := 0; i < benchSamples; i++ {
		for a := range items {
			items[a] = 0
			if (i*31+a*17+i*a)%7 >= 4 {
				items[a] = 1
			}
		}
		c.add(tItems, items, i%3 == 0)
	}
	return map[string]func(n int){
		"shap.(*coalitions).normalEquations": func(n int) {
			for i := 0; i < n; i++ {
				c.normalEquations(0.3, 1)
			}
		},
	}
}
