package lattice

import (
	"testing"
	"testing/quick"
)

func TestMaxMerge(t *testing.T) {
	a, b := NewMax(3), NewMax(7)
	if got := a.Merge(b); got.V != 7 {
		t.Fatalf("Merge(3,7) = %d, want 7", got.V)
	}
	if !a.LessEq(b) || b.LessEq(a) {
		t.Fatal("order of Max(3), Max(7) wrong")
	}
}

func TestMapLattice(t *testing.T) {
	m := NewMap[string, Max[int]]().Put("a", NewMax(1)).Put("b", NewMax(5))
	m2 := NewMap[string, Max[int]]().Put("a", NewMax(3))
	got := m.Merge(m2)
	if v, _ := got.Get("a"); v.V != 3 {
		t.Fatalf("pointwise merge at a = %d, want 3", v.V)
	}
	if v, _ := got.Get("b"); v.V != 5 {
		t.Fatalf("pointwise merge at b = %d, want 5", v.V)
	}
	if !m2.LessEq(got) || !m.LessEq(got) {
		t.Fatal("merge must dominate both inputs")
	}
}

func TestLWW(t *testing.T) {
	w1 := NewLWW(10, "a", "x", func(a, b string) bool { return a == b })
	w2 := NewLWW(20, "b", "y", func(a, b string) bool { return a == b })
	if got := w1.Merge(w2); got.Val != "y" {
		t.Fatalf("later write should win, got %q", got.Val)
	}
	// Timestamp tie: deterministic by writer ID regardless of merge order.
	t1 := NewLWW(5, "a", "p", nil)
	t2 := NewLWW(5, "b", "q", nil)
	if t1.Merge(t2).Val != t2.Merge(t1).Val {
		t.Fatal("tie-broken merge is not commutative")
	}
	if t1.Merge(t2).Val != "q" {
		t.Fatal("tiebreak should pick larger writer ID")
	}
}

func TestMaxLawsQuick(t *testing.T) {
	f := func(a, b, c int) bool {
		return CheckLaws([]Max[int]{NewMax(a), NewMax(b), NewMax(c)}) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLWWLawsQuick(t *testing.T) {
	f := func(s1, s2, s3 uint64, t1, t2, t3 uint8) bool {
		ties := []string{"a", "b", "c", "d"}
		// The payload must be a function of (stamp, tie) for LWW to be a
		// lattice — same writer at the same instant writes the same value.
		mk := func(s uint64, ti uint8) LWW[int] {
			stamp, tie := s%8, int(ti)%len(ties)
			return NewLWW(stamp, ties[tie], int(stamp)*10+tie, func(a, b int) bool { return a == b })
		}
		return CheckLaws([]LWW[int]{mk(s1, t1), mk(s2, t2), mk(s3, t3)}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLawsCatchesViolation(t *testing.T) {
	// A deliberately broken "lattice": addition is not idempotent.
	if err := CheckLaws([]bogus{{1}, {2}}); err == nil {
		t.Fatal("CheckLaws accepted a non-lattice")
	}
}

type bogus struct{ v int }

func (b bogus) Merge(o bogus) bogus { return bogus{b.v + o.v} } // not idempotent
func (b bogus) LessEq(o bogus) bool { return b.v <= o.v }
func (b bogus) Equal(o bogus) bool  { return b.v == o.v }
