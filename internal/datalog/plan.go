package datalog

import (
	"fmt"
)

// This file is the rule-compilation layer (the Hydrolysis access-path story
// of §5.1 applied to the evaluator itself): a one-time Prepare step numbers
// variables into slots so bindings are a flat []any instead of cloned maps,
// caches stratification, splits every literal's columns into bound (probe)
// and free (bind) sets, greedily reorders body literals by boundness, and
// pushes filters to the earliest point they are evaluable. Eval,
// PreparedRule.Derive, the aggregate path, every Incremental maintenance strategy (counting
// included — the derivation counts it keeps ride the head relation's slots,
// Relation.addCount) and the shard replicas' Drive all execute these plans.
// The interpretive binding-map walk (deriveRule in eval.go, behind
// EvalNaive) is the oracle only: the E8 baseline and the reference the
// differential tests compare every plan-driven path against.

// slotTerm is a compiled term: a slot in the flat binding environment, or
// an inline constant when slot < 0.
type slotTerm struct {
	slot int
	c    any
}

func (st slotTerm) value(env []any) any {
	if st.slot >= 0 {
		return env[st.slot]
	}
	return st.c
}

// filterPlan is a comparison compiled onto slots, scheduled at the earliest
// plan position where both sides are bound.
type filterPlan struct {
	op   CmpOp
	l, r slotTerm
}

func (fp filterPlan) eval(env []any) bool {
	return compareValues(fp.op, fp.l.value(env), fp.r.value(env))
}

// litPlan is one body literal compiled against the binding state at its
// scheduled position in the join order.
type litPlan struct {
	pred    string
	origIdx int // index in Rule.Body (delta substitution key)
	negated bool

	// Positive literals: probe columns (bound at this point) and free
	// columns (bound by this literal). checkPos/checkSlots handle a
	// variable repeated within the same literal.
	probePos   []int
	probeArgs  []slotTerm
	freePos    []int
	freeSlots  []int
	checkPos   []int
	checkSlots []int
	// allBound marks a positive literal with every column bound: a pure
	// existence check answered by the relation's membership hash, with no
	// column index needed.
	allBound bool

	// Negated literals probe the full tuple (range restriction guarantees
	// every column is bound here).
	negArgs []slotTerm

	// Filters that become fully bound once this literal binds its slots.
	filters []filterPlan
}

// rulePlan is a fully compiled rule: slot count, join orders, head builder.
type rulePlan struct {
	r      Rule
	nslots int

	// preFilters involve only constants and pre-bound slots; checked once.
	preFilters []filterPlan
	// orders[0] is the standard greedy order. orders[1+i] starts with body
	// literal i — the semi-naive variant that drives the (small) delta
	// first; nil for negated literals.
	orders [][]litPlan
	// head builds the emitted tuple. For aggregate rules the last entry is
	// the aggregation variable's slot and grouping happens in the caller.
	head []slotTerm

	// support is the rule's body compiled with the distinct head variables
	// pre-bound (supportVars, in first-appearance order): binding a concrete
	// head tuple and running it answers "does any derivation of this tuple
	// survive in the current database?" — the DRed re-derivation check.
	// Compiled in Prepare for every non-aggregate rule; nil otherwise.
	// supportBindPos[k] is the head-arg position whose value binds
	// supportVars[k]; supportConsts lists head positions holding constants
	// (a candidate must match them) and supportChecks lists (pos, firstPos)
	// pairs where a head variable repeats (the candidate's columns must
	// agree) — precomputed so binding a candidate is straight array work,
	// with no per-candidate map.
	support        *rulePlan
	supportVars    []string
	supportBindPos []int
	supportConsts  []int
	supportChecks  [][2]int

	// partCol[i] is the partition key of a delta driven through body
	// literal i: the first column of literal i whose variable a later
	// literal in the delta-first order probes on — the first bound join
	// column, so tuples probing the same index buckets share a key. -1
	// means no join column (cross products, single-literal bodies): hash
	// the whole tuple. PartitionHints derives shard placement from it.
	partCol []int
}

// validateWith is Rule.Validate extended with caller-provided pre-bound
// variables (handler parameters in compiled send-rules).
func validateWith(r Rule, preBound []string) error {
	bound := map[string]bool{}
	for _, v := range preBound {
		bound[v] = true
	}
	for _, l := range r.Body {
		if l.Negated {
			continue
		}
		for _, t := range l.Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	for _, l := range r.Body {
		if !l.Negated {
			continue
		}
		for _, t := range l.Args {
			if t.IsVar() && !bound[t.Var] {
				return fmt.Errorf("rule %s: variable ?%s appears only under negation", r.Head.Pred, t.Var)
			}
		}
	}
	headArgs := r.Head.Args
	if r.Agg != "" && len(headArgs) > 0 {
		headArgs = headArgs[:len(headArgs)-1]
	}
	for _, t := range headArgs {
		if t.IsVar() && !bound[t.Var] {
			return fmt.Errorf("rule %s: head variable ?%s not bound in body", r.Head.Pred, t.Var)
		}
	}
	if r.Agg != "" && r.AggVar != "" && !bound[r.AggVar] {
		return fmt.Errorf("rule %s: aggregate variable ?%s not bound in body", r.Head.Pred, r.AggVar)
	}
	for _, f := range r.Filters {
		for _, t := range []Term{f.L, f.R} {
			if t.IsVar() && !bound[t.Var] {
				return fmt.Errorf("rule %s: filter variable ?%s not bound in body", r.Head.Pred, t.Var)
			}
		}
	}
	return nil
}

// compileRule builds the plan for one rule. preBound variables occupy the
// first slots and are filled by the caller before execution. supportMode
// tweaks the join-order tie-break for DRed support plans: on equal
// boundness, probe literals that are not the rule's own head predicate
// first — the head relation is exactly what the over-deletion phase is
// churning, and enumerating it per candidate is what made re-derivation
// degrade toward O(D²) on long chains (the stable input literal usually
// answers in O(1)).
func compileRule(r Rule, preBound []string, supportMode bool) (*rulePlan, error) {
	if err := validateWith(r, preBound); err != nil {
		return nil, err
	}
	// Slot numbering: pre-bound vars first, then first appearance in body
	// text order, then head/filters (defensive; validation implies bound).
	slotOf := map[string]int{}
	assign := func(name string) int {
		if s, ok := slotOf[name]; ok {
			return s
		}
		s := len(slotOf)
		slotOf[name] = s
		return s
	}
	for _, v := range preBound {
		assign(v)
	}
	for _, l := range r.Body {
		for _, t := range l.Args {
			if t.IsVar() {
				assign(t.Var)
			}
		}
	}
	for _, t := range r.Head.Args {
		if t.IsVar() {
			assign(t.Var)
		}
	}
	for _, f := range r.Filters {
		for _, t := range []Term{f.L, f.R} {
			if t.IsVar() {
				assign(t.Var)
			}
		}
	}
	if r.Agg != "" && r.AggVar != "" {
		assign(r.AggVar)
	}

	p := &rulePlan{r: r, nslots: len(slotOf)}

	term := func(t Term) slotTerm {
		if t.IsVar() {
			return slotTerm{slot: slotOf[t.Var]}
		}
		return slotTerm{slot: -1, c: t.Const}
	}

	// Filters whose variables are all pre-bound run before any literal.
	preBoundSet := map[string]bool{}
	for _, v := range preBound {
		preBoundSet[v] = true
	}
	filterVarsBound := func(f Filter, bound map[string]bool) bool {
		for _, t := range []Term{f.L, f.R} {
			if t.IsVar() && !bound[t.Var] {
				return false
			}
		}
		return true
	}
	filterUsed := make([]bool, len(r.Filters))
	for fi, f := range r.Filters {
		if filterVarsBound(f, preBoundSet) {
			p.preFilters = append(p.preFilters, filterPlan{op: f.Op, l: term(f.L), r: term(f.R)})
			filterUsed[fi] = true
		}
	}

	// buildOrder compiles one join order, optionally forcing body literal
	// `first` (the delta literal) to the front.
	buildOrder := func(first int) []litPlan {
		bound := map[string]bool{}
		for v := range preBoundSet {
			bound[v] = true
		}
		used := make([]bool, len(r.Body))
		fused := append([]bool(nil), filterUsed...)
		var order []litPlan

		schedule := func(bi int) {
			l := r.Body[bi]
			lp := litPlan{pred: l.Pred, origIdx: bi, negated: l.Negated}
			if l.Negated {
				lp.negArgs = make([]slotTerm, len(l.Args))
				for j, t := range l.Args {
					lp.negArgs[j] = term(t)
				}
			} else {
				seenHere := map[string]bool{}
				for j, t := range l.Args {
					switch {
					case !t.IsVar():
						lp.probePos = append(lp.probePos, j)
						lp.probeArgs = append(lp.probeArgs, term(t))
					case bound[t.Var]:
						lp.probePos = append(lp.probePos, j)
						lp.probeArgs = append(lp.probeArgs, term(t))
					case seenHere[t.Var]:
						lp.checkPos = append(lp.checkPos, j)
						lp.checkSlots = append(lp.checkSlots, slotOf[t.Var])
					default:
						lp.freePos = append(lp.freePos, j)
						lp.freeSlots = append(lp.freeSlots, slotOf[t.Var])
						seenHere[t.Var] = true
					}
				}
				lp.allBound = len(lp.freePos) == 0 && len(lp.checkPos) == 0 && len(lp.probePos) == len(l.Args)
				for _, t := range l.Args {
					if t.IsVar() {
						bound[t.Var] = true
					}
				}
			}
			// Attach every not-yet-scheduled filter that just became
			// evaluable: filtering as early as possible prunes the walk.
			for fi, f := range r.Filters {
				if !fused[fi] && filterVarsBound(f, bound) {
					lp.filters = append(lp.filters, filterPlan{op: f.Op, l: term(f.L), r: term(f.R)})
					fused[fi] = true
				}
			}
			used[bi] = true
			order = append(order, lp)
		}

		if first >= 0 {
			schedule(first)
		}
		for len(order) < len(r.Body) {
			best, bestScore := -1, -1
			for bi, l := range r.Body {
				if used[bi] {
					continue
				}
				allBound := true
				boundCount := 0
				for _, t := range l.Args {
					if !t.IsVar() || bound[t.Var] {
						boundCount++
					} else {
						allBound = false
					}
				}
				var score int
				if l.Negated {
					if !allBound {
						continue // not schedulable yet
					}
					// Negation is a pure filter: run it as soon as legal.
					score = 1 << 20
				} else {
					// Greedy boundness: more probe columns ≈ more selective.
					score = boundCount*16 - len(l.Args)
					if allBound {
						score += 8 // existence check, maximally selective
					}
					if supportMode && l.Pred == r.Head.Pred {
						score -= 4 // break ties away from the churning head
					}
				}
				if best < 0 || score > bestScore {
					best, bestScore = bi, score
				}
			}
			if best < 0 {
				// Only possible for unschedulable negation, which
				// validateWith rules out.
				panic(fmt.Sprintf("datalog: no schedulable literal in %s", r.Head.Pred))
			}
			schedule(best)
		}
		return order
	}

	p.orders = make([][]litPlan, 1+len(r.Body))
	p.orders[0] = buildOrder(-1)
	for bi, l := range r.Body {
		if !l.Negated {
			p.orders[1+bi] = buildOrder(bi)
		}
	}

	// Partition keys: for each delta-first order, find the first column the
	// delta literal binds that a later literal probes on.
	p.partCol = make([]int, len(r.Body))
	for bi := range r.Body {
		p.partCol[bi] = -1
		order := p.orders[1+bi]
		if order == nil {
			continue
		}
		first := &order[0]
		colOf := map[int]int{} // slot → delta-literal column binding it
		for k, s := range first.freeSlots {
			colOf[s] = first.freePos[k]
		}
		for li := 1; li < len(order) && p.partCol[bi] < 0; li++ {
			lp := &order[li]
			probes := lp.probeArgs
			if lp.negated {
				probes = lp.negArgs
			}
			for _, st := range probes {
				if st.slot < 0 {
					continue
				}
				if c, ok := colOf[st.slot]; ok {
					p.partCol[bi] = c
					break
				}
			}
		}
	}

	headArgs := r.Head.Args
	if r.Agg != "" {
		// Aggregate rules emit (groupVars..., aggVar) rows; grouping and
		// folding happen in the caller over these rows.
		headArgs = append(append([]Term{}, headArgs[:len(headArgs)-1]...), V(r.AggVar))
	}
	p.head = make([]slotTerm, len(headArgs))
	for i, t := range headArgs {
		p.head[i] = term(t)
	}
	return p, nil
}

// preBatch is what a run's positive non-delta literals read besides db —
// tuples a batch already moved, put back (over) or taken out (hide) so the
// literal joins against the state before the batch. Two policies share it:
//
//   - DRed over-deletion: every such literal reads db ∪ over (the batch's
//     removed inputs plus the heads over-deleted so far).
//   - Counting (positional): literals before the delta position read db as
//     is, literals after it read db − hide ∪ over (hide = the batch's added
//     tuples, over = its removed ones), so that summed over every position
//     of every changed tuple each gained or lost derivation is enumerated
//     exactly once.
//
// The delta position reads the delta verbatim and negated probes read db
// (both policies run on monotone components only). The zero value reads db.
type preBatch struct {
	over, hide *Database
	positional bool
}

// run executes the plan: deltaIdx < 0 selects the standard order; otherwise
// body literal deltaIdx reads from delta instead of its full relation and
// the delta-first order is used. emit receives each derived head row.
func (p *rulePlan) run(db *Database, deltaIdx int, delta *Relation, preset []any, emit func(Tuple)) {
	p.runOver(db, deltaIdx, delta, nil, preset, emit)
}

// runOver is run with every positive non-delta literal also reading over's
// tuples for its predicate, as if they were still present in the relation
// (preBatch's DRed policy; nil reads db alone).
func (p *rulePlan) runOver(db *Database, deltaIdx int, delta *Relation, over *Database, preset []any, emit func(Tuple)) {
	order := p.orders[0]
	if deltaIdx >= 0 {
		if o := p.orders[1+deltaIdx]; o != nil {
			order = o
		}
	}
	e := p.newExec(db, order, deltaIdx, delta, preBatch{over: over}, preset, func(t Tuple) bool {
		emit(t)
		return true
	})
	if !e.preFiltersPass() {
		return
	}
	e.walk(0)
}

// runSegmented drives the delta-first order for body literal deltaIdx over
// an explicit slice of delta tuples: for each tuple in order, it emits what
// a whole-delta run would emit while processing that tuple. deltaIdx must
// name a non-negated body literal (those have a delta-first order); env
// and scratch are allocated once and reused across tuples.
func (p *rulePlan) runSegmented(db *Database, deltaIdx int, tuples []Tuple, view preBatch, emit func(Tuple)) {
	if len(tuples) == 0 {
		return
	}
	order := p.orders[1+deltaIdx]
	e := p.newExec(db, order, deltaIdx, nil, view, nil, func(t Tuple) bool {
		emit(t)
		return true
	})
	if !e.preFiltersPass() {
		return
	}
	first := &order[0]
	vals := e.scratch[0]
	for k, st := range first.probeArgs {
		vals[k] = st.value(e.env) // constants only: no slot is bound yet
	}
	for _, t := range tuples {
		// The delta literal's constant columns must agree; step then binds
		// and checks it exactly as it would a tuple found by index lookup.
		if projEqual(t, first.probePos, vals) {
			e.step(0, t, nil)
		}
	}
}

// planExec is one execution of a compiled join order: the flat binding
// environment, per-position probe scratch, and the recursive join walk.
// It is built once per run and reused across every delta tuple the run
// drives.
type planExec struct {
	p        *rulePlan
	db       *Database
	order    []litPlan
	deltaIdx int
	delta    *Relation
	view     preBatch
	env      []any
	scratch  [][]any
	stopped  bool
	emit     func(Tuple) bool
}

func (p *rulePlan) newExec(db *Database, order []litPlan, deltaIdx int, delta *Relation, view preBatch, preset []any, emit func(Tuple) bool) *planExec {
	e := &planExec{p: p, db: db, order: order, deltaIdx: deltaIdx, delta: delta, view: view, emit: emit}
	e.env = make([]any, p.nslots)
	copy(e.env, preset)
	// Per-position scratch for probe values and negation probes, allocated
	// once per execution.
	e.scratch = make([][]any, len(order))
	for i := range order {
		lp := &order[i]
		if lp.negated {
			e.scratch[i] = make([]any, len(lp.negArgs))
		} else {
			e.scratch[i] = make([]any, len(lp.probeArgs))
		}
	}
	return e
}

// rerun re-arms a finished executor for another run with fresh preset
// values — the DRed support checker amortizes one executor across every
// candidate of a phase-2 pass this way. Only the preset prefix and the
// stop flag need resetting: a slot beyond the preset is always written by
// the literal that binds it before any deeper position reads it, so stale
// values from the previous run are never observed.
func (e *planExec) rerun(preset []any) {
	copy(e.env, preset)
	e.stopped = false
}

func (e *planExec) preFiltersPass() bool {
	for _, f := range e.p.preFilters {
		if !f.eval(e.env) {
			return false
		}
	}
	return true
}

func (e *planExec) filtersPass(lp *litPlan) bool {
	for _, f := range lp.filters {
		if !f.eval(e.env) {
			return false
		}
	}
	return true
}

// step accepts one candidate tuple for the positive literal at position i —
// hidden tuples are skipped, free columns bind their slots, repeated
// variables and the literal's filters must agree — and walks on. It reports
// whether the enumeration that produced t should continue.
func (e *planExec) step(i int, t Tuple, hide *Relation) bool {
	lp := &e.order[i]
	if hide != nil && hide.Contains(t) {
		return true
	}
	for k, pos := range lp.freePos {
		e.env[lp.freeSlots[k]] = t[pos]
	}
	for k, pos := range lp.checkPos {
		if t[pos] != e.env[lp.checkSlots[k]] {
			return true
		}
	}
	if e.filtersPass(lp) {
		e.walk(i + 1)
	}
	return !e.stopped
}

// walk recurses through the join order from position i, emitting head
// tuples at the leaves.
func (e *planExec) walk(i int) {
	if e.stopped {
		return
	}
	if i == len(e.order) {
		head := make(Tuple, len(e.p.head))
		for j, st := range e.p.head {
			head[j] = st.value(e.env)
		}
		if !e.emit(head) {
			e.stopped = true
		}
		return
	}
	lp := &e.order[i]
	if lp.negated {
		if rel := e.db.Get(lp.pred); rel != nil {
			probe := e.scratch[i]
			for j, st := range lp.negArgs {
				probe[j] = st.value(e.env)
			}
			if rel.Contains(Tuple(probe)) {
				return
			}
		}
		e.walk(i + 1) // an absent relation holds nothing: negation holds
		return
	}
	// The literal's sources in enumeration order, by e.view's policy.
	var srcs [2]*Relation
	var hide *Relation
	n := 0
	if e.deltaIdx >= 0 && lp.origIdx == e.deltaIdx {
		srcs[0], n = e.delta, 1
	} else {
		if rel := e.db.Get(lp.pred); rel != nil {
			srcs[0], n = rel, 1
		}
		if v := &e.view; v.over != nil && (!v.positional || lp.origIdx > e.deltaIdx) {
			// An empty overlay is skipped, so its index is first built (and
			// from then on maintained) only once a probe can hit it.
			if o := v.over.Get(lp.pred); o != nil && o.Len() > 0 {
				srcs[n] = o
				n++
			}
			if v.hide != nil {
				hide = v.hide.Get(lp.pred)
			}
		}
	}
	vals := e.scratch[i]
	for k, st := range lp.probeArgs {
		vals[k] = st.value(e.env)
	}
	for _, src := range srcs[:n] {
		switch {
		case len(lp.probePos) == 0:
			for _, t := range src.slots {
				if t != nil && !e.step(i, t, hide) {
					return
				}
			}
		case lp.allBound:
			// Existence check: probePos covers every column in order, so
			// vals is the full tuple; the membership hash answers directly.
			if src.Contains(Tuple(vals)) && (hide == nil || !hide.Contains(Tuple(vals))) {
				if e.filtersPass(lp) {
					e.walk(i + 1)
				}
				return
			}
		default:
			for _, s := range src.lookupSlots(lp.probePos, vals) {
				// A projection-hash collision fails projEqual.
				if t := src.slots[s]; projEqual(t, lp.probePos, vals) && !e.step(i, t, hide) {
					return
				}
			}
		}
	}
}

// prepared is the cached compilation of a whole program.
type prepared struct {
	// strata[i] holds the plans of evaluation component i, preserving rule
	// order. Components refine the classic strata: each stratum is split
	// into the strongly-connected components of its head-dependency graph,
	// topologically ordered, so independent rule groups evaluate (and are
	// incrementally maintained) separately.
	strata [][]*rulePlan
}

// refineComponents splits one stratum's rules into the strongly-connected
// components of the head-dependency graph restricted to this stratum's
// heads, in topological (dependencies-first) order. Rule order inside a
// component follows the original rule order, and the whole refinement is
// deterministic, keeping evaluation reproducible.
func refineComponents(rules []Rule) [][]Rule {
	heads := map[string]bool{}
	var preds []string
	for _, r := range rules {
		if !heads[r.Head.Pred] {
			heads[r.Head.Pred] = true
			preds = append(preds, r.Head.Pred)
		}
	}
	// deps[H] lists the same-stratum preds H's rules read (H depends on
	// them), in first-appearance order for determinism.
	deps := map[string][]string{}
	for _, r := range rules {
		h := r.Head.Pred
		for _, l := range r.Body {
			if !heads[l.Pred] {
				continue
			}
			dup := false
			for _, d := range deps[h] {
				if d == l.Pred {
					dup = true
					break
				}
			}
			if !dup {
				deps[h] = append(deps[h], l.Pred)
			}
		}
	}
	// Tarjan over the dependency edges H→B pops each SCC only after every
	// SCC it depends on has been popped: emission order is topological.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var order [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range deps[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			order = append(order, comp)
		}
	}
	for _, v := range preds {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	var out [][]Rule
	for _, comp := range order {
		inComp := map[string]bool{}
		for _, pred := range comp {
			inComp[pred] = true
		}
		var group []Rule
		for _, r := range rules {
			if inComp[r.Head.Pred] {
				group = append(group, r)
			}
		}
		out = append(out, group)
	}
	return out
}

// Prepare compiles the program once: stratification, component refinement,
// slot numbering, join orders, filter placement. It is idempotent and safe
// for concurrent use; Eval and EvalNaive call it implicitly. Mutating Rules
// after the first Prepare (or after NewProgram) is not supported.
func (p *Program) Prepare() error {
	p.prepOnce.Do(func() {
		strata, err := p.Stratify()
		if err != nil {
			p.prepErr = err
			return
		}
		pr := &prepared{}
		for _, stratum := range strata {
			for _, rules := range refineComponents(stratum) {
				var plans []*rulePlan
				for _, r := range rules {
					pl, err := compileRule(r, nil, false)
					if err != nil {
						p.prepErr = err
						return
					}
					if r.Agg == "" {
						// Support plan for DRed re-derivation: the body with
						// the distinct head variables pre-bound, plus the
						// precomputed candidate-binding metadata.
						var headVars []string
						firstPos := map[string]int{}
						var consts []int
						var checks [][2]int
						for j, t := range r.Head.Args {
							if !t.IsVar() {
								consts = append(consts, j)
								continue
							}
							if fp, ok := firstPos[t.Var]; ok {
								checks = append(checks, [2]int{j, fp})
								continue
							}
							firstPos[t.Var] = j
							headVars = append(headVars, t.Var)
						}
						if sp, serr := compileRule(r, headVars, true); serr == nil {
							pl.support = sp
							pl.supportVars = headVars
							pl.supportBindPos = make([]int, len(headVars))
							for k, v := range headVars {
								pl.supportBindPos[k] = firstPos[v]
							}
							pl.supportConsts = consts
							pl.supportChecks = checks
						}
					}
					plans = append(plans, pl)
				}
				pr.strata = append(pr.strata, plans)
			}
		}
		p.prep = pr
	})
	return p.prepErr
}

// PreparedRule is a single rule compiled once for repeated Derive calls,
// optionally with variables that the caller binds per call (the Hydrolysis
// compiler pre-binds handler parameters this way).
type PreparedRule struct {
	plan      *rulePlan
	boundVars []string
}

// PrepareRule compiles r for repeated derivation. boundVars names variables
// the caller will supply at Derive time; they count as bound for range
// restriction.
func PrepareRule(r Rule, boundVars ...string) (*PreparedRule, error) {
	if r.Agg != "" {
		return nil, fmt.Errorf("datalog: PrepareRule does not support aggregates")
	}
	plan, err := compileRule(r, boundVars, false)
	if err != nil {
		return nil, err
	}
	return &PreparedRule{plan: plan, boundVars: boundVars}, nil
}

// Derive evaluates the compiled rule against db. bound supplies values for
// the declared boundVars (missing entries are an error).
func (pr *PreparedRule) Derive(db *Database, bound map[string]any) ([]Tuple, error) {
	preset := make([]any, len(pr.boundVars))
	for i, v := range pr.boundVars {
		val, ok := bound[v]
		if !ok {
			return nil, fmt.Errorf("datalog: prepared rule %s: no binding for ?%s", pr.plan.r.Head.Pred, v)
		}
		preset[i] = val
	}
	var out []Tuple
	pr.plan.run(db, -1, nil, preset, func(t Tuple) { out = append(out, t) })
	return out, nil
}
