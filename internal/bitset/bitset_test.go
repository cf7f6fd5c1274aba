package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Len() != 0 {
		t.Fatalf("empty set: Count=%d Len=%d", s.Count(), s.Len())
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count=%d want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count=%d want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Set(-1)":    func() { s.Set(-1) },
		"Set(10)":    func() { s.Set(10) },
		"Test(10)":   func() { s.Test(10) },
		"Clear(10)":  func() { s.Clear(10) },
		"Assign(10)": func() { s.Assign(10, false) },
		"Assign(-1)": func() { s.Assign(-1, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("AndCount with mismatched capacities did not panic")
		}
	}()
	AndCount(a, b)
}

func TestIndicesAndForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 100, 199}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices len=%d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

func TestAndOrClone(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(50)
	a.Set(99)
	b.Set(50)
	b.Set(99)
	b.Set(2)

	and := And(a, b)
	if got := and.Indices(); len(got) != 2 || got[0] != 50 || got[1] != 99 {
		t.Fatalf("And = %v", got)
	}
	if got := AndCount(a, b); got != 2 {
		t.Fatalf("AndCount = %d want 2", got)
	}
	or := Or(a, b)
	if got := or.Count(); got != 4 {
		t.Fatalf("Or count = %d want 4", got)
	}

	c := a.Clone()
	c.Clear(1)
	if !a.Test(1) {
		t.Fatal("Clone is not independent")
	}
}

func TestIntersectIntoAliasing(t *testing.T) {
	a, b := New(64), New(64)
	a.Set(5)
	a.Set(6)
	b.Set(6)
	IntersectInto(a, a, b) // dst aliases a
	if a.Test(5) || !a.Test(6) {
		t.Fatalf("aliased IntersectInto wrong: %v", a.Indices())
	}
}

func TestString(t *testing.T) {
	s := New(8)
	s.Set(1)
	s.Set(3)
	if got := s.String(); got != "{1 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: Count equals the number of distinct indices inserted.
func TestQuickCountMatchesDistinct(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		distinct := map[uint16]bool{}
		for _, i := range idx {
			s.Set(int(i))
			distinct[i] = true
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AndCount(a,b) == And(a,b).Count() and intersection is
// commutative.
func TestQuickAndCommutes(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(1<<16), New(1<<16)
		for _, i := range xs {
			a.Set(int(i))
		}
		for _, i := range ys {
			b.Set(int(i))
		}
		n1 := AndCount(a, b)
		n2 := AndCount(b, a)
		return n1 == n2 && n1 == And(a, b).Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach visits exactly the set bits, in ascending order.
func TestQuickForEachAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		s := New(n)
		want := map[int]bool{}
		for k := 0; k < rng.Intn(64); k++ {
			i := rng.Intn(n)
			s.Set(i)
			want[i] = true
		}
		prev := -1
		seen := 0
		s.ForEach(func(i int) {
			if i <= prev {
				t.Fatalf("ForEach not ascending: %d after %d", i, prev)
			}
			if !want[i] {
				t.Fatalf("ForEach visited unset bit %d", i)
			}
			prev = i
			seen++
		})
		if seen != len(want) {
			t.Fatalf("ForEach visited %d bits want %d", seen, len(want))
		}
	}
}

func BenchmarkAndCount(b *testing.B) {
	a, c := New(1<<20), New(1<<20)
	for i := 0; i < 1<<20; i += 3 {
		a.Set(i)
	}
	for i := 0; i < 1<<20; i += 5 {
		c.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCount(a, c)
	}
}

// TestNextSetMatchesForEach: the NextSet loop visits exactly the bits
// ForEach does, in the same ascending order, across word boundaries
// and at capacities that are not multiples of 64.
func TestNextSetMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 200} {
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Set(i)
			}
		}
		if n > 0 {
			s.Set(n - 1)
		}
		var got []int
		for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
			got = append(got, i)
		}
		want := s.Indices()
		if len(got) != len(want) {
			t.Fatalf("n=%d: NextSet visited %v, ForEach %v", n, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("n=%d: NextSet visited %v, ForEach %v", n, got, want)
			}
		}
		if s.NextSet(n) != -1 || s.NextSet(n+70) != -1 {
			t.Fatalf("n=%d: NextSet past capacity must be -1", n)
		}
	}
}

func TestReset(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 64, 129} {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 || s.Len() != 130 || s.NextSet(0) != -1 {
		t.Fatalf("after Reset: Count=%d Len=%d NextSet(0)=%d", s.Count(), s.Len(), s.NextSet(0))
	}
}

// TestAssign: Assign sets and clears exactly the addressed bit, across
// word boundaries, and agrees with Set/Clear.
func TestAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a, b := New(150), New(150)
	for step := 0; step < 2000; step++ {
		i := rng.Intn(150)
		v := rng.Intn(2) == 0
		a.Assign(i, v)
		if v {
			b.Set(i)
		} else {
			b.Clear(i)
		}
	}
	if a.String() != b.String() {
		t.Fatalf("Assign diverged from Set/Clear: %v vs %v", a, b)
	}
}
