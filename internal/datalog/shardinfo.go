package datalog

// This file exports the compile-time metadata a distributed deployment
// needs to shard a program across replicas (internal/shard): the
// evaluation-component structure in topological order, per-predicate
// partition-column hints derived from the compiled plans' partition keys
// (rulePlan.partCol) and the tuple→shard hash. A replica maintains its
// shards with the single-node engine itself (Tick, tick.go).

// Component describes one evaluation component (a strongly connected
// component of the head-dependency graph, see plan.go) for external
// schedulers. Components returns them in topological order: a component
// only reads head predicates of earlier components (plus base relations).
type Component struct {
	// Rules holds the component's rules in program order.
	Rules []Rule
	// Heads lists the distinct head predicates, first-appearance order.
	Heads []string
	// Inputs lists the distinct non-head body predicates (including
	// negated ones), first-appearance order.
	Inputs []string
	// NonMono reports negation or aggregation anywhere in the component.
	NonMono bool
}

// Components compiles the program (if needed) and returns its evaluation
// components in topological order.
func (p *Program) Components() ([]Component, error) {
	if err := p.Prepare(); err != nil {
		return nil, err
	}
	var out []Component
	for _, plans := range p.prep.strata {
		out = append(out, classify(plans))
	}
	return out, nil
}

// classify reads a component's heads, inputs and monotonicity off its
// plans.
func classify(plans []*rulePlan) Component {
	c := Component{}
	headSet := map[string]bool{}
	inputSet := map[string]bool{}
	for _, pl := range plans {
		c.Rules = append(c.Rules, pl.r)
		if !headSet[pl.r.Head.Pred] {
			headSet[pl.r.Head.Pred] = true
			c.Heads = append(c.Heads, pl.r.Head.Pred)
		}
		if pl.r.Agg != "" {
			c.NonMono = true
		}
	}
	for _, pl := range plans {
		for _, l := range pl.r.Body {
			if l.Negated {
				c.NonMono = true
			}
			if !headSet[l.Pred] && !inputSet[l.Pred] {
				inputSet[l.Pred] = true
				c.Inputs = append(c.Inputs, l.Pred)
			}
		}
	}
	return c
}

// PartitionHints returns, per predicate, the partition column the compiled
// plans vote for: each (rule, delta position) pair contributes its
// rulePlan.partCol — the first bound join column of the driven literal —
// as a vote for the driven predicate, and the column with the most votes
// wins (ties break toward the smaller column). Predicates no plan ever
// drives through a join column are absent from the map.
func (p *Program) PartitionHints() (map[string]int, error) {
	if err := p.Prepare(); err != nil {
		return nil, err
	}
	votes := map[string]map[int]int{}
	for _, plans := range p.prep.strata {
		for _, pl := range plans {
			for i, l := range pl.r.Body {
				if l.Negated {
					continue
				}
				c := pl.partCol[i]
				if c < 0 {
					continue
				}
				v := votes[l.Pred]
				if v == nil {
					v = map[int]int{}
					votes[l.Pred] = v
				}
				v[c]++
			}
		}
	}
	hints := make(map[string]int, len(votes))
	for pred, v := range votes {
		best, bestN := -1, -1
		for col, n := range v {
			if n > bestN || (n == bestN && col < best) {
				best, bestN = col, n
			}
		}
		hints[pred] = best
	}
	return hints, nil
}

// ShardOf maps a tuple to a shard in [0, n) by hashing column col (or the
// whole tuple when col is out of range).
func ShardOf(t Tuple, col, n int) int {
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
