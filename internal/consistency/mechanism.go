// Package consistency is the compiler's consistency facet (§7): Select
// picks, per handler, the cheapest enforcement mechanism that the declared
// spec plus the CALM analysis allow ("no enforcement", "lattice
// encapsulation" or "coordination", §7.2), Report renders those choices,
// and CheckMeta flags composition paths that silently weaken a declared
// level. hydroc prints all three.
package consistency

import (
	"fmt"
	"sort"

	"hydro/internal/hlang"
)

// Mechanism is an enforcement strategy for a handler's consistency spec —
// the three broad approaches of §7.2.
type Mechanism int

// Mechanisms, cheapest first.
const (
	// MechNone: no enforcement needed — CALM analysis proved the handler
	// monotone, so any replica may act independently.
	MechNone Mechanism = iota
	// MechLattice: the tier §7.2 fills by wrapping state in lattice
	// metadata for local, coordination-free enforcement (Cloudburst/
	// Hydrocache style). The runtime attaches no session metadata: the
	// tier is a selection that nothing enforces yet.
	MechLattice
	// MechCoordination: serialize through a coordination protocol (Paxos
	// log or 2PC) — the heavyweight fallback.
	MechCoordination
)

func (m Mechanism) String() string {
	switch m {
	case MechNone:
		return "none (CALM: monotone)"
	case MechLattice:
		return "lattice-encapsulation"
	default:
		return "coordination"
	}
}

// Choice records the selected mechanism and why.
type Choice struct {
	Handler   string
	Level     hlang.ConsistencyLevel
	Mono      hlang.Monotonicity
	Mechanism Mechanism
	Why       string
	// LocalOnly is set when a serializable handler's non-monotone state —
	// the vars it assigns and the tables it deletes from — is touched by
	// no other handler, so local serialization suffices (§7's vaccinate
	// observation).
	LocalOnly bool
}

// Select picks an enforcement mechanism for every handler, given the
// program and its monotonicity analysis. Callers compute it on demand from
// a compiled program's Program and Analysis; the runtime does not read it.
func Select(p *hlang.Program, a *hlang.Analysis) map[string]Choice {
	touchers := stateTouchers(p, a)
	out := map[string]Choice{}
	for _, h := range p.Handlers {
		info := a.Handlers[h.Name]
		level := h.Consistency
		if level == "" {
			level = hlang.Eventual
		}
		c := Choice{Handler: h.Name, Level: level, Mono: info.Mono}
		switch {
		case info.Mono == hlang.Monotone && level != hlang.Serializable:
			c.Mechanism = MechNone
			c.Why = "monotone handler: CALM guarantees coordination-free determinism"
		case info.Mono == hlang.Monotone && level == hlang.Serializable:
			// Monotone operations commute; serializability comes free.
			c.Mechanism = MechNone
			c.Why = "monotone handler: all operations reorderable, trivially serializable"
		case level == hlang.Eventual:
			c.Mechanism = MechLattice
			c.Why = "non-monotone but eventual: lattice tier selected, not enforced (the runtime attaches no session metadata)"
		case level == hlang.Causal:
			c.Mechanism = MechLattice
			c.Why = "causal: lattice tier selected, not enforced (the runtime attaches no session metadata)"
		default: // serializable + non-monotone
			c.Mechanism = MechCoordination
			c.Why = "non-monotone serializable handler: coordination required"
			// §7's refinement: if no other handler touches the state this
			// handler mutates non-monotonically, serialization is local.
			state := nonMonotoneState(h)
			private := len(state) > 0
			for _, s := range state {
				for other := range touchers[s] {
					if other != h.Name {
						private = false
					}
				}
			}
			if private {
				c.LocalOnly = true
				c.Why = "serializable but state is handler-private: local serialization suffices (no distributed coordination)"
			}
		}
		out[h.Name] = c
	}
	return out
}

// nonMonotoneState lists the vars h assigns and the tables it deletes from.
// Monotone merges commute with everything, so they are not on the list.
func nonMonotoneState(h *hlang.HandlerDecl) []string {
	var out []string
	for _, s := range h.Body {
		switch st := s.(type) {
		case *hlang.AssignStmt:
			out = append(out, st.Var)
		case *hlang.DeleteStmt:
			out = append(out, st.Table)
		}
	}
	return out
}

// stateTouchers maps every var and table to the handlers that touch it: a
// handler touches what it writes, what it reads, and every table a query it
// reads depends on, transitively through other queries.
func stateTouchers(p *hlang.Program, a *hlang.Analysis) map[string]map[string]bool {
	deps := map[string][]string{} // query → predicates its bodies read
	for _, q := range p.Queries {
		for _, b := range q.Body {
			deps[q.Name] = append(deps[q.Name], b.Pred)
		}
	}
	out := map[string]map[string]bool{}
	for name, info := range a.Handlers {
		var touch func(s string)
		touch = func(s string) {
			if out[s] == nil {
				out[s] = map[string]bool{}
			}
			if out[s][name] {
				return
			}
			out[s][name] = true
			for _, d := range deps[s] {
				touch(d)
			}
		}
		for _, names := range [][]string{info.ReadsVars, info.WritesVars, info.ReadsTables, info.WritesTables} {
			for _, s := range names {
				touch(s)
			}
		}
	}
	return out
}

// Report renders the choices sorted by handler name.
func Report(choices map[string]Choice) string {
	names := make([]string, 0, len(choices))
	for n := range choices {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		c := choices[n]
		local := ""
		if c.LocalOnly {
			local = " [local]"
		}
		s += fmt.Sprintf("%-14s %-12s %-13s -> %s%s\n      %s\n", n, c.Level, c.Mono, c.Mechanism, local, c.Why)
	}
	return s
}
