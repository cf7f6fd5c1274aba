package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/rf"
)

// The model under explanation is fixed: the census twin generated from
// modelSeed, one third of it used for training and statistics (the
// paper's protocol), and a 50-tree forest. The workload seed only
// decides which tuples are explained, so a change in seed moves the
// inputs, never the system.
const (
	datasetName = "census"
	modelSeed   = 1
	modelRows   = 6000
	modelTrees  = 50
	modelDepth  = 10
)

// setupRepeats is how many times a run builds its environment. setup_s
// reports the median, which keeps one slow build (a page-cache miss, a
// noisy neighbour) from moving the gated figure.
const setupRepeats = 5

// env is the prepared system a workload drives: training statistics and
// the trained forest, plus the twin's generator for explained tuples.
type env struct {
	spec   *datagen.Config
	stats  *dataset.Stats
	forest *rf.Forest
}

// newEnv generates the census twin, computes the training statistics
// and trains the forest.
func newEnv() (*env, error) {
	spec, err := datagen.Spec(datasetName)
	if err != nil {
		return nil, err
	}
	data, err := spec.Generate(modelRows, modelSeed)
	if err != nil {
		return nil, fmt.Errorf("generating %s twin: %w", datasetName, err)
	}
	train, _ := data.Split(1.0/3, rand.New(rand.NewSource(modelSeed+1)))
	st, err := dataset.Compute(train)
	if err != nil {
		return nil, fmt.Errorf("computing stats: %w", err)
	}
	forest, err := rf.Train(train, rf.Config{NumTrees: modelTrees, MaxDepth: modelDepth, Seed: modelSeed + 2})
	if err != nil {
		return nil, fmt.Errorf("training forest: %w", err)
	}
	return &env{spec: spec, stats: st, forest: forest}, nil
}

// setupEnv builds the environment setupRepeats times, then runs extra
// (serving fleets add start-up and warm-up here) on the last build as
// many times, tearing down all but the last. It returns the last
// environment, the extra step's product, and the median set-up time.
func setupEnv[T any](extra func(*env) (T, func(), error)) (*env, T, float64, error) {
	var (
		e     *env
		x     T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		fresh, err := newEnv()
		if err != nil {
			return nil, x, 0, err
		}
		var stop func()
		if extra != nil {
			if x, stop, err = extra(fresh); err != nil {
				return nil, x, 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 && stop != nil {
			stop()
		}
		e = fresh
	}
	return e, x, median(times), nil
}

// tuples generates n census-twin tuples from the workload seed. The
// labels the generator draws are discarded: the program sees only the
// tuples.
func (e *env) tuples(n int, seed int64) ([][]float64, error) {
	d, err := e.spec.Generate(n, seed)
	if err != nil {
		return nil, fmt.Errorf("generating tuples: %w", err)
	}
	return d.Rows(0, n), nil
}

// sortedBy returns tuples stably ordered by the bin of attribute a, so
// the values a stream sees drift in long runs instead of mixing.
func (e *env) sortedBy(tuples [][]float64, a int) [][]float64 {
	out := append([][]float64(nil), tuples...)
	sort.SliceStable(out, func(i, j int) bool {
		return e.stats.Bin(a, out[i][a]) < e.stats.Bin(a, out[j][a])
	})
	return out
}

// measurePeakRSS runs phase and returns the peak resident set size it
// reached, in MB. Before the phase it hands the memory set-up left
// behind back to the kernel and resets the kernel's peak mark (writing
// 5 to /proc/self/clear_refs), so neither the repeated set-ups nor the
// audit that follows the phase sets the figure.
func measurePeakRSS(phase func() error) (float64, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting the peak RSS mark: %w", err)
	}
	if err := phase(); err != nil {
		return 0, err
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading the peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading the peak RSS: no VmHWM line in /proc/self/status")
}
