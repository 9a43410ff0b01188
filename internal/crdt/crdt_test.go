package crdt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hydro/internal/lattice"
)

func TestGCounterBasics(t *testing.T) {
	a := NewGCounter("r1").Inc(3)
	b := NewGCounter("r2").Inc(4)
	m := a.Merge(b)
	if m.Value() != 7 {
		t.Fatalf("merged value = %d, want 7", m.Value())
	}
	// Merging the same state twice must not double-count (idempotence).
	if m.Merge(b).Value() != 7 {
		t.Fatal("re-merge double-counted")
	}
}

func TestGCounterConcurrentIncrements(t *testing.T) {
	// Two replicas increment concurrently from a shared ancestor.
	base := NewGCounter("r1").Inc(1)
	r2 := base.Merge(NewGCounter("r2"))
	r2.Replica = "r2"
	a := base.Inc(5) // r1: 1+5
	b := r2.Inc(2)   // r2: 2, carries r1:1
	m1 := a.Merge(b)
	m2 := b.Merge(a)
	if m1.Value() != 8 || m2.Value() != 8 {
		t.Fatalf("convergent value = %d/%d, want 8", m1.Value(), m2.Value())
	}
	if !m1.Equal(m2) {
		t.Fatal("merge order changed the state")
	}
}

func TestPNCounter(t *testing.T) {
	c := NewPNCounter("r1").Inc(10).Dec(3)
	if c.Value() != 7 {
		t.Fatalf("value = %d, want 7", c.Value())
	}
	d := NewPNCounter("r2").Dec(9)
	if c.Merge(d).Value() != -2 {
		t.Fatalf("merged = %d, want -2", c.Merge(d).Value())
	}
}

func TestGCounterLawsQuick(t *testing.T) {
	f := func(a, b, c uint8) bool {
		mk := func(n uint8, rep string) GCounter { return NewGCounter(rep).Inc(uint64(n % 16)) }
		return lattice.CheckLaws([]GCounter{mk(a, "r1"), mk(b, "r2"), mk(c, "r3")}) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCartBasics(t *testing.T) {
	c := NewCart("r1").AddItem("apple", 2).AddItem("pear", 1).AddItem("apple", -1)
	if c.Quantity("apple") != 1 || c.Quantity("pear") != 1 {
		t.Fatalf("quantities apple=%d pear=%d", c.Quantity("apple"), c.Quantity("pear"))
	}
	if c.Manifest() != "apple=1;pear=1" {
		t.Fatalf("manifest = %q", c.Manifest())
	}
}

func TestCartSealCheckout(t *testing.T) {
	// Replica A and B hold divergent cart states.
	a := NewCart("a").AddItem("x", 2)
	b := NewCart("b").AddItem("y", 1)
	// The client (unreplicated stage) merges what it has seen and seals.
	client := a.Merge(b)
	sealed := client.Seal(100)
	manifest, ok := sealed.Sealed()
	if !ok || manifest != "x=2;y=1" {
		t.Fatalf("sealed manifest = %q ok=%v", manifest, ok)
	}
	// Replica A receives the seal but is missing B's update: not yet out.
	aSealed := a.Merge(sealed)
	if aSealed.Manifest() != "x=2;y=1" {
		// a merged with sealed client state which contains everything.
		t.Fatalf("merge should deliver contents too, got %q", aSealed.Manifest())
	}
	if !aSealed.CheckedOut() {
		t.Fatal("replica with full contents + seal must check out")
	}
	// A replica holding only the seal register and partial contents waits.
	partial := NewCart("c").AddItem("x", 2)
	sealOnly := NewCart("client2")
	sealOnly.sealed = sealed.sealed
	sealOnly.has = true
	waiting := partial.Merge(sealOnly)
	if waiting.CheckedOut() {
		t.Fatal("replica missing y=1 must not check out yet")
	}
	done := waiting.Merge(b)
	if !done.CheckedOut() {
		t.Fatal("replica must check out once contents match the manifest")
	}
}

func TestCartMergeCommutes(t *testing.T) {
	a := NewCart("a").AddItem("x", 1)
	b := NewCart("b").AddItem("x", 2).Seal(5)
	if !a.Merge(b).Equal(b.Merge(a)) {
		t.Fatal("cart merge must commute")
	}
}

func TestCartConcurrentSealsDeterministic(t *testing.T) {
	a := NewCart("a").AddItem("x", 1).Seal(10)
	b := NewCart("b").AddItem("y", 1).Seal(10) // same stamp, different replica
	m1, _ := a.Merge(b).Sealed()
	m2, _ := b.Merge(a).Sealed()
	if m1 != m2 {
		t.Fatalf("concurrent seals resolved differently: %q vs %q", m1, m2)
	}
}

func TestCartLawsQuick(t *testing.T) {
	// Each replica seals at most once, so a seal's manifest is a function
	// of its (stamp, replica) pair: the LWW register's lattice precondition.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := []string{"x", "y", "z"}
		mk := func(replica string) *Cart {
			c := NewCart(replica)
			for i := 0; i < r.Intn(5); i++ {
				c = c.AddItem(items[r.Intn(len(items))], int64(r.Intn(5)-2))
			}
			if r.Intn(2) == 0 {
				c = c.Seal(uint64(r.Intn(3)))
			}
			return c
		}
		return lattice.CheckLaws([]*Cart{mk("a"), mk("b"), mk("c")}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
