package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

var (
	testEnvOnce sync.Once
	testEnvVal  *env
	testEnvErr  error
)

// testEnv builds the benchmark's environment once for all tests.
func testEnv(t *testing.T) *env {
	t.Helper()
	testEnvOnce.Do(func() { testEnvVal, testEnvErr = newEnv() })
	if testEnvErr != nil {
		t.Fatal(testEnvErr)
	}
	return testEnvVal
}

func TestSeedAloneDecidesScheduleAndMix(t *testing.T) {
	mix := serveMixed.mix
	a := makeSchedule(7, serveRate, 20*time.Second, serveWarm, mix)
	b := makeSchedule(7, serveRate, 20*time.Second, serveWarm, mix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, makeSchedule(8, serveRate, 20*time.Second, serveWarm, mix)) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}

	long := makeSchedule(7, serveRate, 200*time.Second, serveWarm, mix)
	fresh, repeat, exact := counts(long)
	n := float64(len(long))
	if want := serveRate * 200; n != want {
		t.Errorf("scheduled %v requests in 200 s, want %v", n, want)
	}
	for _, c := range []struct {
		kind      string
		got, want float64
	}{
		{"fresh", float64(fresh) / n, mix.fresh},
		{"repeat", float64(repeat) / n, mix.repeat},
		{"exact", float64(exact) / n, mix.exact()},
	} {
		if math.Abs(c.got-c.want) > 0.03 {
			t.Errorf("%s share %.3f, want about %.2f", c.kind, c.got, c.want)
		}
	}
	for i := 1; i < len(long); i++ {
		if long[i].At < long[i-1].At {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if last := long[len(long)-1].At; last >= 200*time.Second || last < 199*time.Second {
		t.Errorf("last arrival due at %v, want just under 200s", last)
	}
}

func TestSeedAloneDecidesTuples(t *testing.T) {
	e := testEnv(t)
	sched := makeSchedule(7, serveRate, 5*time.Second, serveWarm, serveMixed.mix)
	same := func(seed int64) serveTuples {
		st, err := makeServeTuples(e, seed, 0, sched)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if !reflect.DeepEqual(same(7), same(7)) {
		t.Error("the same seed drew two different serve-mixed tuple tables")
	}
	if other := same(8); reflect.DeepEqual(same(7).fresh, other.fresh) || reflect.DeepEqual(same(7).warm, other.warm) {
		t.Error("seeds 7 and 8 drew the same serve-mixed tuples")
	}
	if p0, p1 := same(7), func() serveTuples {
		st, err := makeServeTuples(e, 7, 1, sched)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}(); reflect.DeepEqual(p0.fresh, p1.fresh) || !reflect.DeepEqual(p0.warm, p1.warm) {
		t.Error("a second phase must draw new fresh tuples and repeat the same warm-up tuples")
	}

	spec := batchSpec{batch: 20}
	call := func(seed int64, k int) [][]float64 {
		ts, err := callTuples(e, spec, seed, k)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	if !reflect.DeepEqual(call(7, 3), call(7, 3)) {
		t.Error("the same seed drew two different batches")
	}
	if reflect.DeepEqual(call(7, 3), call(8, 3)) || reflect.DeepEqual(call(7, 3), call(7, 4)) {
		t.Error("different seeds or calls drew the same batch")
	}
}
