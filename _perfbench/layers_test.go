package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/core"
	"shahin/internal/explain/lime"
	"shahin/internal/rf"
)

// assertCharged checks that slowing one wrapper moved the layer table's
// growth onto that layer: it took at least share of the end-to-end
// growth and no other row (nor "other") moved by more than rest of it.
func assertCharged(t *testing.T, base, slow *layerTable, layer string, share, rest float64) {
	t.Helper()
	grow := slow.e2e - base.e2e
	if grow <= 0 {
		t.Fatalf("the planted slowdown did not slow the run: %.3f -> %.3f %s", base.e2e, slow.e2e, base.unit)
	}
	if d := slow.self(layer) - base.self(layer); d < share*grow {
		t.Errorf("%s grew %.3f of %.3f %s end-to-end growth, want at least %.0f%%", layer, d, grow, base.unit, 100*share)
	}
	for _, r := range slow.rows {
		if r.layer == layer {
			continue
		}
		if d := r.self - base.self(r.layer); math.Abs(d) > rest*grow {
			t.Errorf("%s moved %.3f %s with %s slowed (growth %.3f)", r.layer, d, base.unit, layer, grow)
		}
	}
	if d := slow.other() - base.other(); math.Abs(d) > rest*grow {
		t.Errorf("other moved %.3f %s with %s slowed (growth %.3f)", d, base.unit, layer, grow)
	}
}

func TestLayerTableChargesPlantedClassifierSlowdown(t *testing.T) {
	e := testEnv(t)
	spec := batchSpec{
		name:  "planted",
		opts:  core.Options{Explainer: core.LIME, LIME: lime.Config{NumSamples: 200}, Seed: explainerSeed},
		batch: 100,
	}
	table := func(slowdown float64) *layerTable {
		o := newLayerOutcome()
		m := newMeter(rf.NewDelayed(e.forest, 10*time.Microsecond))
		m.slowdown = slowdown
		m.on.Store(true)
		arm, err := newBatchArm(e, nil, m, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		phs, err := runBatchPhase(o, e, spec, 1, time.Nanosecond, arm) // one call
		if err != nil {
			t.Fatal(err)
		}
		tab := batchLayers(o, spec, phs[0])
		tab.check(o)
		if len(o.violations) > 0 {
			t.Fatalf("slowdown %v: %v", slowdown, o.violations)
		}
		return tab
	}
	base, slow := table(1), table(2)
	assertCharged(t, base, slow, "rf", 0.8, 0.2)
	if d := slow.self("rf") - base.self("rf"); d < 0.7*base.self("rf") {
		t.Errorf("a 2x classifier grew the rf row by %.3f over %.3f %s", d, base.self("rf"), base.unit)
	}
}

func TestLayerTableChargesPlantedReplicaSlowdown(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("times a serving fleet; the race detector swamps the planted stall")
	}
	e := testEnv(t)
	tr := newTracer()
	stretch := new(atomic.Int64)
	f, stop, err := setupFleet(1, fleetHooks{tr: tr, replicaStretch: stretch})(e)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	table := func(phase int) *layerTable {
		o := newLayerOutcome()
		// A low rate keeps the client's connections mostly idle, so the
		// slower replica adds little queueing in the generator.
		_, tab, err := tracedServePhase(o, e, f, tr, serveLIME, 1, phase, 10, 6*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		tab.check(o)
		for _, v := range o.violations {
			t.Errorf("phase %d: %s", phase, v)
		}
		return tab
	}
	base := table(1)
	stretch.Store(200)
	slow := table(2)
	// Flush composition shifts a little with the slower answers, so the
	// rows fed by flush shares move by more than the classifier test's.
	assertCharged(t, base, slow, "serve", 0.6, 0.35)
}
