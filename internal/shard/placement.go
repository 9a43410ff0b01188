// Package shard runs a datalog program as a distributed deployment over
// the simulated cluster: base relations are hash-partitioned by key across
// N replicas, each replica evaluates its shard locally, and exchange
// rounds ship derived (and DRed retracted) tuples to the replica that owns
// them, except where owner computes (Placement.Local). A coordinator
// sequences one BSP tick at a time and retries whole attempts on timeout,
// so the deployment converges to the exact single-node fixpoint even
// across failures, partitions and redelivery (DESIGN.md §11).
package shard

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hydro/internal/datalog"
)

// Spec is the placement of one predicate across the replica set.
type Spec struct {
	// Mirrored replicates the full relation on every replica. Non-monotone
	// components (negation, aggregates), the base inputs of a decomposable
	// linear recursion (NewPlacement) and predicates that defeat join
	// locality are mirrored; everything else is sharded. A mirrored base
	// relation is stored N times, and each of its ops goes to every replica.
	Mirrored bool
	// Col is the hash-partition column for sharded predicates; out-of-range
	// (-1) hashes the whole tuple.
	Col int
}

// Placement assigns every predicate of a program a Spec over N replicas.
type Placement struct {
	N     int
	Specs map[string]Spec
	// Local holds, per component in Components order, whether every
	// derivation of a head row lies on the row's owner: in every rule, each
	// sharded body literal holds the head's partition variable at its own
	// partition column, and a mirrored head reads only mirrored relations.
	// A local component runs on each replica with no exchange round.
	Local []bool
	// Preds is every placed predicate, sorted — the deterministic
	// iteration order for all per-predicate state in the engine.
	Preds []string
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
//   - a decomposable component (carriedCol: a linear recursion over base
//     inputs) shards its head on the column its recursion carries and
//     mirrors its inputs, declared columns overridden, so a replica derives
//     the head rows it owns from its own copies (Wolfson & Silberschatz,
//     SIGMOD 1988); each input is stored N times;
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
// Mirroring only grows, so the loop reaches a fixpoint in at most one pass
// per predicate; then one rule, owner computes, marks local components.
// Rows are routed to their owners whatever the placement, so a poor choice
// costs speed, never correctness.
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
		for _, pred := range slices.Concat(c.Heads, c.Inputs) {
			place(pred)
		}
	}

	mirror := func(pred string) bool { // reports whether pred was sharded
		s := specs[pred]
		specs[pred] = Spec{Mirrored: true, Col: s.Col}
		return !s.Mirrored
	}
	for _, c := range comps {
		if k, ok := carriedCol(c, edb); ok {
			specs[c.Heads[0]] = Spec{Col: k}
			for _, in := range c.Inputs {
				mirror(in)
			}
		}
	}
	for _, c := range comps {
		if c.NonMono {
			for _, pred := range slices.Concat(c.Heads, c.Inputs) {
				mirror(pred)
			}
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
					ds := specs[lit.Pred]
					anchor, fixed := partVar(ds, lit.Args), !ds.Mirrored
					for j, co := range r.Body {
						if j == i || specs[co.Pred].Mirrored {
							continue
						}
						coVar := partVar(specs[co.Pred], co.Args)
						if !fixed && coVar != "" {
							anchor, fixed = coVar, true
						} else if anchor == "" || coVar != anchor {
							changed = mirror(co.Pred) || changed
						}
					}
				}
			}
		}
	}

	// Owner computes: a component is local when, in every rule, each sharded
	// body literal holds the head's partition variable at its own partition
	// column. A mirrored head, or one hashed whole, has none, so it may read
	// only mirrored relations.
	local := make([]bool, len(comps))
	for ci, c := range comps {
		local[ci] = true
		for _, r := range c.Rules {
			v := partVar(specs[r.Head.Pred], r.Head.Args)
			for _, l := range r.Body {
				if s := specs[l.Pred]; !s.Mirrored && (v == "" || partVar(s, l.Args) != v) {
					local[ci] = false
				}
			}
		}
	}

	preds := make([]string, 0, len(specs))
	for pred := range specs {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	return &Placement{N: n, Specs: specs, Local: local, Preds: preds}, nil
}

// partVar returns the variable args hold at s's partition column: "" if s
// is mirrored or hashes the whole row, or args hold a constant there.
func partVar(s Spec, args []datalog.Term) string {
	if s.Mirrored || s.Col < 0 || s.Col >= len(args) || !args[s.Col].IsVar() {
		return ""
	}
	return args[s.Col].Var
}

// carriedCol reports whether c is decomposable — a monotone component
// with one head H, only base inputs (edb), no body holding two H literals
// and at least one recursive rule — and if so returns the first column
// every recursive rule carries: its H literal holds there the variable its
// head holds there.
func carriedCol(c datalog.Component, edb map[string]int) (int, bool) {
	if c.NonMono || len(c.Heads) != 1 {
		return -1, false
	}
	for _, in := range c.Inputs {
		if _, ok := edb[in]; !ok {
			return -1, false
		}
	}
	h, recursive := c.Heads[0], false
	dropped := make([]bool, len(c.Rules[0].Head.Args)) // per H column: a recursive rule does not carry it
	for _, r := range c.Rules {
		var rec []datalog.Term // the H literal's arguments
		for _, l := range r.Body {
			if l.Pred == h {
				if rec != nil {
					return -1, false
				}
				rec = l.Args
			}
		}
		if rec == nil {
			continue
		}
		recursive = true
		for k, t := range r.Head.Args {
			dropped[k] = dropped[k] || !t.IsVar() || rec[k].Var != t.Var
		}
	}
	for k, d := range dropped {
		if recursive && !d {
			return k, true
		}
	}
	return -1, false
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
	return pick(len(t), col, n, func(h uint64, i int) uint64 { return hashValue(h, t[i]) })
}

// shardOfRow is shardOf on the words of the tuple, resolved through vals
// (datalog.Word), without decoding it.
func shardOfRow(w []uint64, vals []any, col, n int) int {
	return pick(len(w), col, n, func(h uint64, i int) uint64 { return hashWord(h, w[i], vals) })
}

// pick maps a row of arity cols to [0, n), fold hashing in column col or,
// when col is out of range, every column i.
func pick(cols, col, n int, fold func(h uint64, i int) uint64) int {
	if n <= 1 {
		return 0
	}
	if col >= 0 && col < cols {
		return int(fold(fnvOffset, col) % uint64(n))
	}
	h := fnvOffset
	for i := 0; i < cols; i++ {
		h = fold(h, i)
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
		h = hashInt(h, int64(x))
	case int64:
		h = hashInt(h, x)
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

// hashInt folds an int or int64: the two hash alike.
func hashInt(h uint64, x int64) uint64 { return hashUint64(hashByte(h, 'i'), uint64(x)) }

// hashWord folds word w as hashValue folds the value it holds.
func hashWord(h, w uint64, vals []any) uint64 {
	v, n, isInt := datalog.Word(w, vals)
	if isInt {
		return hashInt(h, n)
	}
	return hashValue(h, v)
}
