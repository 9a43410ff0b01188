package lattice

import "cmp"

// Max is the lattice of ordered values under maximum. The zero value is the
// bottom of the lattice for unsigned types; use NewMax to set an initial
// element explicitly.
type Max[E cmp.Ordered] struct{ V E }

// NewMax returns a Max lattice element holding v.
func NewMax[E cmp.Ordered](v E) Max[E] { return Max[E]{V: v} }

// Merge returns the greater of the two values.
func (m Max[E]) Merge(o Max[E]) Max[E] { return Max[E]{V: max(m.V, o.V)} }

// LessEq reports m.V <= o.V.
func (m Max[E]) LessEq(o Max[E]) bool { return m.V <= o.V }

// Equal reports value equality.
func (m Max[E]) Equal(o Max[E]) bool { return m.V == o.V }

// LWW is the last-writer-wins register lattice, ordered by (timestamp, tie)
// with a deterministic tiebreak so that merge stays commutative even for
// concurrent writes at the same timestamp.
type LWW[E any] struct {
	Stamp uint64
	Tie   string // writer ID used to break timestamp ties deterministically
	Val   E
	eq    func(a, b E) bool
}

// NewLWW returns an LWW register. eq compares payloads for Equal; it may be
// nil for payload types where staleness alone defines equality.
func NewLWW[E any](stamp uint64, tie string, val E, eq func(a, b E) bool) LWW[E] {
	return LWW[E]{Stamp: stamp, Tie: tie, Val: val, eq: eq}
}

func (l LWW[E]) dominates(o LWW[E]) bool {
	if l.Stamp != o.Stamp {
		return l.Stamp > o.Stamp
	}
	return l.Tie >= o.Tie
}

// Merge keeps the write with the larger (stamp, tie) pair.
func (l LWW[E]) Merge(o LWW[E]) LWW[E] {
	if l.dominates(o) {
		return l
	}
	return o
}

// LessEq reports that o's write dominates or equals l's.
func (l LWW[E]) LessEq(o LWW[E]) bool { return o.dominates(l) }

// Equal reports equal stamp and tiebreak (and payload when eq is provided).
func (l LWW[E]) Equal(o LWW[E]) bool {
	if l.Stamp != o.Stamp || l.Tie != o.Tie {
		return false
	}
	if l.eq != nil {
		return l.eq(l.Val, o.Val)
	}
	return true
}
