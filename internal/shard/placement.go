// Package shard runs a datalog program as a distributed deployment over
// the simulated cluster: base relations are hash-partitioned by key across
// N replicas, each replica evaluates its shard locally, and exchange
// operators at evaluation-component boundaries ship derived (and DRed
// retracted) tuples to the replica that owns them. A coordinator
// sequences one BSP tick at a time and retries whole attempts on timeout,
// so the deployment converges to the exact single-node fixpoint even
// across failures, partitions and redelivery (DESIGN.md §11).
package shard

import (
	"fmt"
	"math"
	"sort"

	"hydro/internal/datalog"
)

// Spec is the placement of one predicate across the replica set.
type Spec struct {
	// Mirrored replicates the full relation on every replica. Non-monotone
	// components (negation, aggregates) and predicates that defeat join
	// locality are mirrored; everything else is sharded.
	Mirrored bool
	// Col is the hash-partition column for sharded predicates; out-of-range
	// (-1) hashes the whole tuple.
	Col int
}

// Placement assigns every predicate of a program a Spec over N replicas.
type Placement struct {
	N     int
	Specs map[string]Spec
	// Preds is every placed predicate, sorted — the deterministic
	// iteration order for all per-predicate state in the engine.
	Preds []string
}

// route appends v to out[d] for each replica d holding pred's tuple t: its
// owner (hash of the partition column mod N), or every replica for a
// mirrored pred.
func route[T any](p *Placement, out [][]T, pred string, t datalog.Tuple, v T) {
	if s := p.Specs[pred]; !s.Mirrored {
		d := shardOf(t, s.Col, p.N)
		out[d] = append(out[d], v)
		return
	}
	for d := range out {
		out[d] = append(out[d], v)
	}
}

// NewPlacement derives a placement for prog's predicates over n replicas.
// edb maps base predicates to arities; declared maps predicates to
// partition columns fixed by the source program (hlang `partition(col)`
// annotations, else the table key) and takes precedence over the join
// votes (joinVotes) for the initial column choice.
//
// The analysis starts everything sharded (declared column, else voted
// column, else whole-tuple) and mirrors predicates until every remaining
// drive is local:
//
//   - every predicate of a non-monotone component (heads and all body
//     predicates, negated included) is mirrored — those components
//     recompute locally from full copies;
//   - within monotone components, driving a delta of a sharded predicate
//     through a rule requires every sharded co-literal to be anchored on
//     the driven literal's partition variable (so matching tuples live on
//     the driving replica); a co-literal that is not gets mirrored;
//   - a sharded driven literal whose partition column is not a variable
//     of the literal cannot anchor co-literals, so any sharded co-literal
//     it joins with is mirrored too.
//
// Mirroring only grows, so the loop reaches a fixpoint in at most one
// pass per predicate.
func NewPlacement(prog *datalog.Program, edb map[string]int, n int, declared map[string]int) (*Placement, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 replica, got %d", n)
	}
	comps := prog.Components()
	votes := joinVotes(comps)

	specs := map[string]Spec{}
	place := func(pred string) {
		if _, ok := specs[pred]; ok {
			return
		}
		col := -1
		if c, ok := votes[pred]; ok {
			col = c
		}
		if c, ok := declared[pred]; ok {
			col = c
		}
		specs[pred] = Spec{Col: col}
	}
	for pred := range edb {
		place(pred)
	}
	for _, c := range comps {
		for _, h := range c.Heads {
			place(h)
		}
		for _, in := range c.Inputs {
			place(in)
		}
	}

	mirror := func(pred string) bool {
		s := specs[pred]
		if s.Mirrored {
			return false
		}
		s.Mirrored = true
		specs[pred] = s
		return true
	}
	for _, c := range comps {
		if !c.NonMono {
			continue
		}
		for _, h := range c.Heads {
			mirror(h)
		}
		for _, in := range c.Inputs {
			mirror(in)
		}
	}

	for changed := true; changed; {
		changed = false
		for _, c := range comps {
			if c.NonMono {
				continue
			}
			for _, r := range c.Rules {
				for i, lit := range r.Body {
					// The required anchor variable for this drive
					// position: a sharded driven literal anchors on its
					// own partition variable (matches must live on the
					// owner); a mirrored one is driven on every replica
					// against local shards, so the sharded co-literals
					// need only agree with each other — the first one's
					// anchor becomes the requirement.
					anchor := ""
					fixed := false
					if ds := specs[lit.Pred]; !ds.Mirrored {
						fixed = true
						if ds.Col >= 0 && ds.Col < len(lit.Args) && lit.Args[ds.Col].IsVar() {
							anchor = lit.Args[ds.Col].Var
						}
					}
					for j, co := range r.Body {
						if j == i {
							continue
						}
						cs := specs[co.Pred]
						if cs.Mirrored {
							continue
						}
						coVar := ""
						if cs.Col >= 0 && cs.Col < len(co.Args) && co.Args[cs.Col].IsVar() {
							coVar = co.Args[cs.Col].Var
						}
						if !fixed && coVar != "" {
							anchor, fixed = coVar, true
							continue
						}
						if anchor == "" || coVar != anchor {
							if mirror(co.Pred) {
								changed = true
							}
						}
					}
				}
			}
		}
	}

	preds := make([]string, 0, len(specs))
	for pred := range specs {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	return &Placement{N: n, Specs: specs, Preds: preds}, nil
}

// joinVotes returns, per predicate, the partition column its join
// occurrences vote for: every positive body literal of every rule votes
// for joinCol's column, the most votes win and ties go to the smaller
// column. Rows that join then share an owner. Predicates with no vote are
// absent.
func joinVotes(comps []datalog.Component) map[string]int {
	votes := map[string]map[int]int{}
	for _, c := range comps {
		for _, r := range c.Rules {
			for i, l := range r.Body {
				if l.Negated {
					continue
				}
				col := joinCol(r.Body, i)
				if col < 0 {
					continue
				}
				if votes[l.Pred] == nil {
					votes[l.Pred] = map[int]int{}
				}
				votes[l.Pred][col]++
			}
		}
	}
	out := make(map[string]int, len(votes))
	for pred, v := range votes {
		best, bestN := -1, -1
		for col, n := range v {
			if n > bestN || (n == bestN && col < best) {
				best, bestN = col, n
			}
		}
		out[pred] = best
	}
	return out
}

// joinCol is body literal i's vote. Taking the other literals in body
// order, the first one that shares a variable with literal i decides: the
// vote is literal i's column holding the first shared variable that
// literal reads, in its own argument order. -1 means no other literal
// shares a variable (a single-literal body, a cross product).
func joinCol(body []datalog.Literal, i int) int {
	for j, other := range body {
		if j == i {
			continue
		}
		for _, t := range other.Args {
			if !t.IsVar() {
				continue
			}
			for col, u := range body[i].Args {
				if u.Var == t.Var {
					return col
				}
			}
		}
	}
	return -1
}

// shardOf maps a tuple to a shard in [0, n) by hashing column col (or the
// whole tuple when col is out of range).
func shardOf(t datalog.Tuple, col, n int) int {
	if n <= 1 {
		return 0
	}
	var h uint64
	if col >= 0 && col < len(t) {
		h = hashValue(fnvOffset, t[col])
	} else {
		h = hashTuple(t)
	}
	return int(h % uint64(n))
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashByte folds one byte into an FNV-1a state.
func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// hashUint64 folds eight bytes into the state.
func hashUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = hashByte(h, byte(v>>i))
	}
	return h
}

// hashValue folds one tuple element, prefixed by a type tag so that 1,
// "1", uint64(1) and 1.0 never collide. It hashes the Go value, not a
// dictionary word, so it means the same in every process.
func hashValue(h uint64, v any) uint64 {
	switch x := v.(type) {
	case string:
		h = hashByte(h, 's')
		for i := 0; i < len(x); i++ {
			h = hashByte(h, x[i])
		}
		h = hashByte(h, 0xff)
	case int:
		h = hashByte(h, 'i')
		h = hashUint64(h, uint64(int64(x)))
	case int64:
		h = hashByte(h, 'i')
		h = hashUint64(h, uint64(x))
	case uint64:
		h = hashByte(h, 'u')
		h = hashUint64(h, x)
	case float64:
		h = hashByte(h, 'f')
		h = hashUint64(h, math.Float64bits(x))
	case bool:
		if x {
			h = hashByte(h, 'T')
		} else {
			h = hashByte(h, 'F')
		}
	default:
		h = hashByte(h, '?')
		s := fmt.Sprint(x)
		for i := 0; i < len(s); i++ {
			h = hashByte(h, s[i])
		}
		h = hashByte(h, 0xff)
	}
	return h
}

// hashTuple hashes a full tuple.
func hashTuple(t datalog.Tuple) uint64 {
	h := fnvOffset
	for _, v := range t {
		h = hashValue(h, v)
	}
	return h
}
