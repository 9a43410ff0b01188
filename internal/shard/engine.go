package shard

import (
	"fmt"

	"hydro/internal/datalog"
)

// compMeta is the immutable per-component evaluation metadata shared by
// every replica of a deployment. The component's position in
// Deployment.comps is its datalog.Components index — the one Program.Drive
// takes.
type compMeta struct {
	rules   []datalog.Rule
	heads   []string
	inputs  []string
	nonMono bool
	// sub re-evaluates a non-monotone component locally: its inputs are
	// fully mirrored, so clearing the heads and running the component's
	// own fixpoint on the replica database reproduces single-node
	// semantics (negation, aggregates) exactly.
	sub *datalog.Program
	// designated[ri]: every body literal of rule ri is mirrored, so all
	// replicas would derive identical emissions from any drive of it — only
	// the frontier tuple's designated driver (whole-tuple hash) drives it.
	designated []bool
}

func buildCompMeta(comps []datalog.Component, place *Placement) ([]*compMeta, error) {
	var out []*compMeta
	for ci, c := range comps {
		m := &compMeta{rules: c.Rules, heads: c.Heads, inputs: c.Inputs, nonMono: c.NonMono}
		if c.NonMono {
			sub, err := datalog.NewProgram(c.Rules...)
			if err != nil {
				return nil, fmt.Errorf("shard: compiling component %d: %w", ci, err)
			}
			m.sub = sub
		} else {
			m.designated = make([]bool, len(c.Rules))
			for ri, r := range c.Rules {
				m.designated[ri] = true
				for _, l := range r.Body {
					if !place.Specs[l.Pred].Mirrored {
						m.designated[ri] = false
					}
				}
			}
		}
		out = append(out, m)
	}
	return out, nil
}
