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
		d := datalog.ShardOf(t, s.Col, p.N)
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
// annotations) and takes precedence over the compiled plans' partition
// hints for the initial column choice.
//
// The analysis starts everything sharded (declared column, else hint
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
	comps, err := prog.Components()
	if err != nil {
		return nil, err
	}
	hints, err := prog.PartitionHints()
	if err != nil {
		return nil, err
	}

	specs := map[string]Spec{}
	place := func(pred string) {
		if _, ok := specs[pred]; ok {
			return
		}
		col := -1
		if c, ok := hints[pred]; ok {
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
