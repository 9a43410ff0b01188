package datalog

// This file exports the compile-time structure a distributed deployment
// needs to shard a program across replicas (internal/shard): the
// evaluation components in topological order. Placement — which replica
// owns a row — is decided in internal/shard alone; a replica maintains its
// shards with the single-node engine itself (Tick and Site, tick.go).

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

// Components returns the program's evaluation components in topological
// order.
func (p *Program) Components() []Component {
	var out []Component
	for _, plans := range p.strata {
		out = append(out, classify(plans))
	}
	return out
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
