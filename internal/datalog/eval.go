package datalog

import (
	"fmt"
	"sync"
)

// Program is a set of rules over a database. Evaluation computes the least
// fixpoint of all rules, stratum by stratum. Rules are compiled to plans
// (slot-numbered bindings, boundness-ordered joins, cached stratification)
// once, on the first evaluation or an explicit Prepare call.
type Program struct {
	Rules []Rule

	prepOnce sync.Once
	prep     *prepared
	prepErr  error
}

// NewProgram validates, bundles and compiles rules.
func NewProgram(rules ...Rule) (*Program, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	p := &Program{Rules: rules}
	if err := p.Prepare(); err != nil {
		return nil, err
	}
	return p, nil
}

// idbPreds returns the set of predicates defined by some rule head.
func (p *Program) idbPreds() map[string]bool {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	return idb
}

// Stratify partitions rules into strata such that negated or aggregated
// dependencies always point to strictly lower strata. It returns an error
// when negation/aggregation occurs through recursion (unstratifiable).
// Evaluation uses the cached result inside Prepare; this method recomputes
// and exists for diagnostics and tests.
func (p *Program) Stratify() ([][]Rule, error) {
	idb := p.idbPreds()
	// stratum number per predicate, computed by the classic iterative
	// lifting algorithm.
	stratum := map[string]int{}
	for pred := range idb {
		stratum[pred] = 0
	}
	n := len(idb)
	for iter := 0; iter <= n*n+1; iter++ {
		changed := false
		for _, r := range p.Rules {
			h := r.Head.Pred
			for _, l := range r.Body {
				if !idb[l.Pred] {
					continue
				}
				need := stratum[l.Pred]
				if l.Negated || r.Agg != "" {
					need++ // must be fully computed first
				}
				if stratum[h] < need {
					stratum[h] = need
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter == n*n+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable (negation or aggregation through recursion)")
		}
	}
	maxS := 0
	for _, s := range stratum {
		if s > n {
			return nil, fmt.Errorf("datalog: program is not stratifiable (negation or aggregation through recursion)")
		}
		if s > maxS {
			maxS = s
		}
	}
	out := make([][]Rule, maxS+1)
	for _, r := range p.Rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	return out, nil
}

// Eval runs the program to fixpoint over db using semi-naive (differential)
// evaluation per stratum, executing compiled plans. It mutates db in place,
// creating IDB relations as needed, and returns the number of derived
// tuples. Evaluation components run one after another in strata order,
// which is topological: a component only reads heads of earlier ones.
func (p *Program) Eval(db *Database) (int, error) {
	if err := p.Prepare(); err != nil {
		return 0, err
	}
	derived := 0
	var rounds roundBufs
	for _, plans := range p.prep.strata {
		n, err := evalStratumSemiNaive(db, plans, &rounds)
		if err != nil {
			return derived, err
		}
		derived += n
	}
	return derived, nil
}

// EvalNaive runs the program with naive (all-at-once) iteration: every rule
// re-derives from the full relations each round, walking rules
// interpretively (map bindings, no plans). It is the baseline for
// experiment E8 (differential vs all-at-once flows, §8.2) and the reference
// implementation the differential property test checks Eval against.
func (p *Program) EvalNaive(db *Database) (int, error) {
	// Stratification comes from the Prepare cache (so E8 times evaluation
	// strategy, not per-call stratification); derivation itself stays
	// interpretive.
	if err := p.Prepare(); err != nil {
		return 0, err
	}
	derived := 0
	for _, plans := range p.prep.strata {
		rules := make([]Rule, len(plans))
		for i, pl := range plans {
			rules[i] = pl.r
		}
		ensureHeads(db, rules)
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

func ensureHeads(db *Database, rules []Rule) {
	for _, r := range rules {
		db.Ensure(r.Head.Pred, len(r.Head.Args))
	}
}

func ensureHeadsPlanned(db *Database, plans []*rulePlan) {
	for _, pl := range plans {
		db.Ensure(pl.r.Head.Pred, len(pl.r.Head.Args))
	}
}

// evalStratumSemiNaive computes the fixpoint of one stratum off compiled
// plans: a full derivation per rule seeds the semi-naive rounds, which
// re-derive each positive body literal from the previous round's new rows
// until none is new. Aggregate rules run once after the non-aggregate
// fixpoint (they depend only on lower strata plus this stratum's final
// relations).
func evalStratumSemiNaive(db *Database, plans []*rulePlan, rounds *roundBufs) (int, error) {
	ensureHeadsPlanned(db, plans)
	derived := 0
	seed := map[string]*rowList{}
	var out rowList // reused derivation buffer
	for _, pl := range plans {
		if pl.r.Agg != "" {
			continue
		}
		rel := db.Get(pl.r.Head.Pred)
		d := rowsOf(seed, pl.r.Head.Pred, rel.Arity)
		out.reset(rel.Arity)
		pl.run(db, nil, out.add)
		for k, n := 0, out.len(); k < n; k++ {
			if w := out.row(k); rel.insertRow(w) {
				d.add(w)
				derived++
			}
		}
	}
	rounds.rotate()
	for frontier := seed; ; frontier = rounds.cur {
		grew := derived
		rounds.driveOnce(db, plans, frontier, preBatch{}, nil, 1, func(rel *Relation, w []uint64, _ int) {
			if rel.insertRow(w) {
				rowsOf(rounds.next, rel.Name, rel.Arity).add(w)
				derived++
			}
		})
		if rounds.rotate(); derived == grew {
			break
		}
	}
	n, err := evalAggregatesPlanned(db, plans)
	return derived + n, err
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
					return // unbound head var (Validate prevents this)
				}
				head[j] = v
			}
			out = append(out, head)
			return
		}
		l := r.Body[i]
		rel := db.Get(l.Pred)
		if rel == nil {
			if l.Negated {
				walk(i+1, b) // absent relation: negation trivially holds
			}
			return
		}
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

func newGroupTable(d *dict, arity int) *groupTable {
	return &groupTable{groups: newRelation(d, "", arity-1)}
}

func (g *groupTable) add(w []uint64) {
	prefix := w[:len(w)-1]
	g.groups.ensureSet()
	cell, slot := g.groups.set.find(g.groups, prefix)
	if slot < 0 {
		slot = g.groups.appendRow(cell, prefix)
		g.vals = append(g.vals, rowList{arity: 1})
	}
	g.vals[slot].add(w[len(w)-1:])
}

// foldGroups folds each group with the aggregate and inserts head rows.
func foldGroups(rel *Relation, kind AggKind, headPred string, g *groupTable) (int, error) {
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

// evalAggregatesPlanned runs a stratum's aggregate rules once off compiled
// plans, grouping by the non-aggregate head arguments.
func evalAggregatesPlanned(db *Database, plans []*rulePlan) (int, error) {
	derived := 0
	for _, pl := range plans {
		if pl.r.Agg == "" {
			continue
		}
		rel := db.Ensure(pl.r.Head.Pred, len(pl.r.Head.Args))
		g := newGroupTable(rel.dict, rel.Arity)
		pl.run(db, nil, g.add)
		n, err := foldGroups(rel, pl.r.Agg, pl.r.Head.Pred, g)
		derived += n
		if err != nil {
			return derived, err
		}
	}
	return derived, nil
}

// evalAggregatesNaive is the interpretive aggregate path used by EvalNaive:
// derivation via deriveRule, grouping via the same hash group table.
func evalAggregatesNaive(db *Database, rules []Rule) (int, error) {
	derived := 0
	for _, r := range rules {
		if r.Agg == "" {
			continue
		}
		rel := db.Ensure(r.Head.Pred, len(r.Head.Args))
		// Build grouping rule: derive (groupVars..., aggVar) rows.
		groupArgs := r.Head.Args[:len(r.Head.Args)-1]
		probe := Rule{
			Head:    Atom{Pred: r.Head.Pred, Args: append(append([]Term{}, groupArgs...), V(r.AggVar))},
			Body:    r.Body,
			Filters: r.Filters,
		}
		g := newGroupTable(rel.dict, rel.Arity)
		var buf [8]uint64
		for _, row := range deriveRule(db, probe) {
			g.add(rel.dict.encodeRow(buf[:0], row))
		}
		n, err := foldGroups(rel, r.Agg, r.Head.Pred, g)
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
		var s float64
		allInt := true
		for _, v := range vals {
			f, ok := toFloat(v)
			if !ok {
				return nil, fmt.Errorf("sum over non-numeric value %v", v)
			}
			if _, isF := v.(float64); isF {
				allInt = false
			}
			s += f
		}
		if allInt {
			return int64(s), nil
		}
		return s, nil
	case AggMax, AggMin:
		if len(vals) == 0 {
			return nil, fmt.Errorf("%s over empty group", kind)
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if kind == AggMax && compareValues(OpGt, v, best) {
				best = v
			}
			if kind == AggMin && compareValues(OpLt, v, best) {
				best = v
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("unknown aggregate %q", kind)
}
