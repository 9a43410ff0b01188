package datalog

import "fmt"

// Program is a set of rules over a database. Evaluation computes the least
// fixpoint of all rules, one evaluation component after another. NewProgram
// compiles the rules into the components and plans (slot-numbered
// bindings, boundness-ordered joins) every evaluator walks; a Program it
// did not make is refused, and mutating Rules afterwards is not supported.
type Program struct {
	Rules []Rule

	// strata[i] holds the plans of evaluation component i, in rule order,
	// in the order components emits them: a component reads only base
	// relations, its own heads and earlier components' heads.
	strata [][]*rulePlan
	// arity is the one arity of every predicate the rules name; nil in a
	// Program NewProgram did not make.
	arity map[string]int
}

// NewProgram compiles rules, checking each one for range restriction (every
// head, filter and aggregate variable bound by a positive body literal, and
// no variable only under negation): their evaluation components, arities,
// slot numbering, join orders and filter placement.
func NewProgram(rules ...Rule) (*Program, error) {
	comps, arity, err := components(rules)
	if err != nil {
		return nil, err
	}
	p := &Program{Rules: rules, arity: arity}
	for _, rs := range comps {
		plans := make([]*rulePlan, len(rs))
		for i, r := range rs {
			if plans[i], err = compileProgramRule(r); err != nil {
				return nil, err
			}
		}
		p.strata = append(p.strata, plans)
	}
	return p, nil
}

// EvalNaive runs the program with naive (all-at-once) iteration: every rule
// re-derives from the full relations each round, walking rules
// interpretively (map bindings, no plans). It is the oracle the
// differential tests check every plan-driven path against, and
// BenchmarkEvalNaiveTCChain's baseline for BenchmarkEvalTCChain
// (differential vs all-at-once flows, §8.2).
func (p *Program) EvalNaive(db *Database) (int, error) {
	// Components come from NewProgram (so the benchmark pair times
	// evaluation strategy, not per-call analysis); derivation itself stays
	// interpretive.
	if _, err := p.register(db); err != nil {
		return 0, err
	}
	derived := 0
	for _, plans := range p.strata {
		rules := make([]Rule, len(plans))
		for i, pl := range plans {
			rules[i] = pl.r
		}
		for {
			changed := 0
			for _, r := range rules {
				if r.Agg != "" {
					continue
				}
				for _, t := range deriveRule(db, r) {
					if db.Get(r.Head.Pred).Insert(t) {
						changed++
					}
				}
			}
			derived += changed
			if changed == 0 {
				break
			}
		}
		n, err := evalAggregatesNaive(db, rules)
		if err != nil {
			return derived, err
		}
		derived += n
	}
	return derived, nil
}

// evalStratumSemiNaive computes the fixpoint of one component off compiled
// plans: a full derivation per rule seeds the semi-naive rounds, which
// re-derive each positive body literal from the previous round's new rows
// until none is new. Aggregate rules run once after the non-aggregate
// fixpoint (they read only earlier components, whose relations are final).
// It is the one from-scratch fixpoint: NewIncremental's seed and a
// recomputed component's re-evaluation.
func evalStratumSemiNaive(db *Database, plans []*rulePlan, rounds *roundBufs) error {
	seed := map[string]*rowList{}
	var out rowList // reused derivation buffer
	for _, pl := range plans {
		if pl.r.Agg != "" {
			continue
		}
		rel := db.Get(pl.r.Head.Pred)
		d := rowsOf(seed, pl.r.Head.Pred, rel.Arity)
		out.reset(rel.Arity)
		pl.run(db, nil, &out)
		for k, n := 0, out.len(); k < n; k++ {
			if w := out.row(k); rel.insertRow(w) {
				d.add(w)
			}
		}
	}
	rounds.rotate()
	for frontier := seed; ; frontier = rounds.cur {
		grew := false
		rounds.driveOnce(db, plans, frontier, preBatch{}, 1, func(rel *Relation, w []uint64, _, _ int) {
			if rel.insertRow(w) {
				rowsOf(rounds.next, rel.Name, rel.Arity).add(w)
				grew = true
			}
		})
		if rounds.rotate(); !grew {
			break
		}
	}
	return evalAggregatesPlanned(db, plans)
}

// deriveRule is the interpretive evaluator kept as the naive baseline: it
// enumerates all bindings satisfying the body with a cloned-map environment
// and returns head tuples. (Semi-naive delta substitution lives entirely in
// the compiled plans now.)
func deriveRule(db *Database, r Rule) []Tuple {
	if r.Agg != "" {
		return nil
	}
	var out []Tuple
	var walk func(i int, b binding)
	walk = func(i int, b binding) {
		if i == len(r.Body) {
			for _, f := range r.Filters {
				if !evalFilter(f, b) {
					return
				}
			}
			head := make(Tuple, len(r.Head.Args))
			for j, t := range r.Head.Args {
				v, ok := b.resolve(t)
				if !ok {
					return // unbound head var (NewProgram rejects this)
				}
				head[j] = v
			}
			out = append(out, head)
			return
		}
		l := r.Body[i]
		rel := db.Get(l.Pred)
		if l.Negated {
			// All args are bound (range restriction): membership test.
			probe := make(Tuple, len(l.Args))
			for j, t := range l.Args {
				v, ok := b.resolve(t)
				if !ok {
					return
				}
				probe[j] = v
			}
			if !rel.Contains(probe) {
				walk(i+1, b)
			}
			return
		}
		// Positive literal: probe with whatever is bound.
		var pos []int
		var vals []any
		for j, t := range l.Args {
			if v, ok := b.resolve(t); ok {
				pos = append(pos, j)
				vals = append(vals, v)
			}
		}
		for _, t := range rel.Lookup(pos, vals) {
			nb := b
			cloned := false
			ok := true
			for j, at := range l.Args {
				if !at.IsVar() {
					if t[j] != at.Const {
						ok = false
						break
					}
					continue
				}
				if v, bound := nb[at.Var]; bound {
					if v != t[j] {
						ok = false
						break
					}
					continue
				}
				if !cloned {
					nb = b.clone()
					cloned = true
				}
				nb[at.Var] = t[j]
			}
			if ok {
				walk(i+1, nb)
			}
		}
	}
	walk(0, binding{})
	return out
}

// groupTable accumulates encoded (group..., value) rows by group prefix: the
// distinct prefixes are a relation — its slot number is the group, its
// insertion order the first-seen order — and vals keeps each group's value
// words in arrival order.
type groupTable struct {
	groups *Relation
	vals   []rowList
}

func (g *groupTable) add(w []uint64) {
	prefix := w[:len(w)-1]
	cell, slot := g.groups.set.find(g.groups, prefix)
	if slot < 0 {
		slot = g.groups.appendRow(cell, prefix)
		g.vals = append(g.vals, rowList{arity: 1})
	}
	g.vals[slot].add(w[len(w)-1:])
}

// foldGroups groups encoded (group..., value) rows by group prefix, folds
// each group with the aggregate and inserts head rows.
func foldGroups(rel *Relation, kind AggKind, headPred string, rows *rowList) (int, error) {
	g := &groupTable{groups: newRelation(rel.dict, "", rel.Arity-1)}
	for k, n := 0, rows.len(); k < n; k++ {
		g.add(rows.row(k))
	}
	derived := 0
	head := make([]uint64, rel.Arity)
	for slot := range g.vals {
		vals := rel.dict.decodeRow(make([]any, g.vals[slot].len()), g.vals[slot].w)
		val, err := aggregate(kind, vals)
		if err != nil {
			return derived, fmt.Errorf("rule %s: %w", headPred, err)
		}
		copy(head, g.groups.row(slot))
		head[rel.Arity-1] = rel.dict.encode(val)
		if rel.insertRow(head) {
			derived++
		}
	}
	return derived, nil
}

// evalAggregatesPlanned runs a component's aggregate rules once off compiled
// plans, grouping by the non-aggregate head arguments.
func evalAggregatesPlanned(db *Database, plans []*rulePlan) error {
	for _, pl := range plans {
		if pl.r.Agg == "" {
			continue
		}
		rel, rows := db.Get(pl.r.Head.Pred), &db.derived
		rows.reset(rel.Arity)
		pl.run(db, nil, rows)
		if _, err := foldGroups(rel, pl.r.Agg, pl.r.Head.Pred, rows); err != nil {
			return err
		}
	}
	return nil
}

// evalAggregatesNaive is the interpretive aggregate path used by EvalNaive:
// derivation via deriveRule, grouping via the same hash group table.
func evalAggregatesNaive(db *Database, rules []Rule) (int, error) {
	derived := 0
	for _, r := range rules {
		if r.Agg == "" {
			continue
		}
		rel := db.Get(r.Head.Pred)
		// Build grouping rule: derive (groupVars..., aggVar) rows.
		groupArgs := r.Head.Args[:len(r.Head.Args)-1]
		probe := Rule{
			Head:    Atom{Pred: r.Head.Pred, Args: append(append([]Term{}, groupArgs...), V(r.AggVar))},
			Body:    r.Body,
			Filters: r.Filters,
		}
		rows := rowList{arity: rel.Arity}
		for _, row := range deriveRule(db, probe) {
			rows.addTuple(rel.dict, row)
		}
		n, err := foldGroups(rel, r.Agg, r.Head.Pred, &rows)
		derived += n
		if err != nil {
			return derived, err
		}
	}
	return derived, nil
}

// aggregate folds one group's values, in arrival order.
func aggregate(kind AggKind, vals []any) (any, error) {
	switch kind {
	case AggCount:
		seen := NewRelation("", 1) // count distinct: the value column as a relation
		for i := range vals {
			seen.Insert(vals[i : i+1])
		}
		return int64(seen.Len()), nil
	case AggSum:
		// Integers add exactly in int64; any other numeric value adds in
		// float64, and a float64 term makes the sum a float64.
		var n int64
		var f float64
		isFloat := false
		for _, v := range vals {
			if i, ok := ToInt(v); ok {
				n += i
				continue
			}
			x, ok := ToFloat(v)
			if !ok {
				return nil, fmt.Errorf("sum over non-numeric value %v", v)
			}
			_, isF := v.(float64)
			isFloat = isFloat || isF
			f += x
		}
		if isFloat {
			return float64(n) + f, nil
		}
		return n + int64(f), nil
	case AggMax, AggMin:
		if len(vals) == 0 {
			return nil, fmt.Errorf("%s over empty group", kind)
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if kind == AggMax && Compare(OpGt, v, best) {
				best = v
			}
			if kind == AggMin && Compare(OpLt, v, best) {
				best = v
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("unknown aggregate %q", kind)
}
