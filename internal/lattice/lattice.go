// Package lattice implements the join-semilattice algebra at the heart of
// the Hydro stack (CIDR '21, §1.2 and §8). A join-semilattice is a set with
// a binary merge (least upper bound) that is associative, commutative and
// idempotent — the "ACI" properties of ACID 2.0. Monotone programs over
// lattices produce deterministic outcomes without coordination (the CALM
// theorem), which is what the consistency facet exploits.
//
// The central abstraction is Value[T], a self-referential generic interface:
// each lattice type merges with and compares against its own type. The
// package holds the lattices the CRDTs of internal/crdt are built from (Max,
// Map, LWW) and CheckLaws, the law oracle their tests run. All lattice
// values in this package are immutable: Merge returns a new value.
package lattice

// Value is a join-semilattice element. Implementations must satisfy the
// semilattice laws, checked by CheckLaws:
//
//	Merge(a, Merge(b, c)) == Merge(Merge(a, b), c)   (associativity)
//	Merge(a, b) == Merge(b, a)                       (commutativity)
//	Merge(a, a) == a                                 (idempotence)
//
// LessEq is the induced partial order: a ≤ b iff Merge(a, b) == b.
type Value[T any] interface {
	// Merge returns the least upper bound of the receiver and other.
	Merge(other T) T
	// LessEq reports whether the receiver precedes other in the lattice
	// partial order.
	LessEq(other T) bool
	// Equal reports semantic equality of two lattice values.
	Equal(other T) bool
}

// LawViolation describes a broken semilattice law, for CheckLaws.
type LawViolation struct {
	Law    string // "associativity", "commutativity", "idempotence", "order"
	Detail string
}

func (v *LawViolation) Error() string { return "lattice law violated: " + v.Law + ": " + v.Detail }

// CheckLaws exercises the ACI laws plus order/merge coherence on a sample of
// values. It returns the first violation found, or nil. Property tests feed
// it with testing/quick-generated samples.
func CheckLaws[T Value[T]](samples []T) error {
	for _, a := range samples {
		if !a.Merge(a).Equal(a) {
			return &LawViolation{Law: "idempotence", Detail: "a⊔a != a"}
		}
		for _, b := range samples {
			ab, ba := a.Merge(b), b.Merge(a)
			if !ab.Equal(ba) {
				return &LawViolation{Law: "commutativity", Detail: "a⊔b != b⊔a"}
			}
			// Merge must be an upper bound of both arguments.
			if !a.LessEq(ab) || !b.LessEq(ab) {
				return &LawViolation{Law: "order", Detail: "a,b not ≤ a⊔b"}
			}
			// a ≤ b must coincide with a⊔b == b.
			if a.LessEq(b) != ab.Equal(b) {
				return &LawViolation{Law: "order", Detail: "LessEq inconsistent with Merge"}
			}
			for _, c := range samples {
				if !a.Merge(b.Merge(c)).Equal(ab.Merge(c)) {
					return &LawViolation{Law: "associativity", Detail: "a⊔(b⊔c) != (a⊔b)⊔c"}
				}
			}
		}
	}
	return nil
}
