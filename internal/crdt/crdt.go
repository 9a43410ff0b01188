// Package crdt implements state-based conflict-free replicated data types
// (CvRDTs) on top of the lattice algebra. CRDTs are the paper's §1.2
// "data types with ACI methods": replicas mutate locally and exchange state;
// merges converge without coordination because the state forms a
// join-semilattice.
//
// The package holds what experiment E10 and examples/cart run: the G- and
// PN-counters and the sealed shopping Cart built from them. Each type
// carries a replica ID for mutations that must be attributed (counter
// components). Merge never needs attribution.
package crdt

import "hydro/internal/lattice"

// GCounter is a grow-only counter: one Max component per replica, summed on
// read. Increments commute, so replicas converge under any delivery order.
type GCounter struct {
	Replica string
	counts  lattice.Map[string, lattice.Max[uint64]]
}

// NewGCounter returns a zero counter owned by replica.
func NewGCounter(replica string) GCounter {
	return GCounter{Replica: replica, counts: lattice.NewMap[string, lattice.Max[uint64]]()}
}

// Inc adds delta to this replica's component.
func (g GCounter) Inc(delta uint64) GCounter {
	cur, _ := g.counts.Get(g.Replica)
	return GCounter{Replica: g.Replica, counts: g.counts.Put(g.Replica, lattice.NewMax(cur.V+delta))}
}

// Value sums all replica components.
func (g GCounter) Value() uint64 {
	var total uint64
	for _, k := range g.counts.Keys() {
		v, _ := g.counts.Get(k)
		total += v.V
	}
	return total
}

// Merge takes the pointwise maximum of per-replica components. The receiver
// keeps its replica identity.
func (g GCounter) Merge(o GCounter) GCounter {
	return GCounter{Replica: g.Replica, counts: g.counts.Merge(o.counts)}
}

// LessEq is pointwise order on components.
func (g GCounter) LessEq(o GCounter) bool { return g.counts.LessEq(o.counts) }

// Equal is pointwise equality on components (replica identity is not state).
func (g GCounter) Equal(o GCounter) bool { return g.counts.Equal(o.counts) }

// PNCounter supports increment and decrement as a pair of GCounters.
type PNCounter struct {
	Pos, Neg GCounter
}

// NewPNCounter returns a zero PN-counter owned by replica.
func NewPNCounter(replica string) PNCounter {
	return PNCounter{Pos: NewGCounter(replica), Neg: NewGCounter(replica)}
}

// Inc adds delta.
func (p PNCounter) Inc(delta uint64) PNCounter {
	return PNCounter{Pos: p.Pos.Inc(delta), Neg: p.Neg}
}

// Dec subtracts delta.
func (p PNCounter) Dec(delta uint64) PNCounter {
	return PNCounter{Pos: p.Pos, Neg: p.Neg.Inc(delta)}
}

// Value returns increments minus decrements (may be negative).
func (p PNCounter) Value() int64 { return int64(p.Pos.Value()) - int64(p.Neg.Value()) }

// Merge merges both component counters.
func (p PNCounter) Merge(o PNCounter) PNCounter {
	return PNCounter{Pos: p.Pos.Merge(o.Pos), Neg: p.Neg.Merge(o.Neg)}
}

// LessEq is componentwise order.
func (p PNCounter) LessEq(o PNCounter) bool { return p.Pos.LessEq(o.Pos) && p.Neg.LessEq(o.Neg) }

// Equal is componentwise equality.
func (p PNCounter) Equal(o PNCounter) bool { return p.Pos.Equal(o.Pos) && p.Neg.Equal(o.Neg) }
