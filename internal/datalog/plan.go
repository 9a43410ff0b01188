package datalog

import (
	"fmt"
	"maps"
	"slices"
)

// This file is the rule-compilation layer (the Hydrolysis access-path story
// of §5.1 applied to the evaluator itself): NewProgram, once, numbers
// variables and constants into slots so bindings are a flat []uint64 of
// encoded words instead of cloned maps, orders the rules into evaluation
// components in one Tarjan pass (components), splits every literal's
// columns into bound (probe) and free (bind) sets, greedily reorders body
// literals by boundness, and pushes filters to the earliest point they are
// evaluable. NewIncremental's from-scratch seed, PreparedRule.Derive, the
// aggregate path, every Incremental maintenance strategy, DRed's support
// check and the shard replicas' Ticks all execute these plans, through the
// one executor a database keeps per plan (exec): a run writes encoded head
// rows into the caller's rowList, or, given none, stops at the first; a
// qualifying last literal writes them through its emit list (litPlan).
// The interpretive binding-map walk (deriveRule in eval.go, behind
// EvalNaive) is the oracle only: the reference the differential tests
// compare every plan-driven path against, and BenchmarkEvalNaiveTCChain's
// baseline.

// A compiled term is a slot in the flat binding environment: variables
// first, then one slot per constant, which each database's executor for the
// plan (exec) fills once with the constant's word in that database's
// dictionary (a plan is compiled once and runs on many databases).

// filterPlan is a comparison compiled onto slots, scheduled at the earliest
// plan position where both sides are bound.
type filterPlan struct {
	op   CmpOp
	l, r int
}

// litPlan is one body literal compiled against the binding state at its
// scheduled position in the join order.
type litPlan struct {
	pred    string
	negated bool

	// Positive literals: probe columns (bound at this point) and free
	// columns (bound by this literal). checkPos/checkSlots handle a
	// variable repeated within the same literal.
	probePos   []int
	probeArgs  []int
	freePos    []int
	freeSlots  []int
	checkPos   []int
	checkSlots []int
	// allBound marks a positive literal with every column bound: a pure
	// existence check answered by the relation's membership table, with no
	// column index needed.
	allBound bool

	// Negated literals probe the full tuple (range restriction guarantees
	// every column is bound here).
	negArgs []int

	// Filters that become fully bound once this literal binds its slots.
	filters []filterPlan
	// emit is non-nil (empty for an arity-0 head) on the last literal of an
	// order that is positive, not all bound, with no checkPos and no filter:
	// head column j is env[emit[j]], or row column -1-emit[j] if negative.
	// walk writes each row its probe finds as a head row, binding nothing.
	emit []int
}

// rulePlan is a fully compiled rule: slot count, join orders, head builder.
type rulePlan struct {
	r      Rule
	nslots int   // variables and constants
	consts []any // values of the slots past the variables, in slot order

	// preFilters involve only constants and pre-bound slots; checked once.
	preFilters []filterPlan
	// orders[0] is the standard greedy order. orders[1+i] starts with body
	// literal i — the semi-naive variant that drives the (small) delta
	// first; nil for negated literals.
	orders [][]litPlan
	// head builds the emitted tuple. For aggregate rules the last entry is
	// the aggregation variable's slot and grouping happens in the caller.
	head []int

	// support is the rule's body compiled with the distinct head variables
	// pre-bound, in first-appearance order: binding a concrete head tuple
	// and running it answers "does any derivation of this tuple survive in
	// the current database?" — the DRed re-derivation check (rederivable).
	// Compiled by NewProgram for every non-aggregate rule; nil otherwise.
	// supportBindPos[k] is the head-arg position whose value binds the k-th
	// of those variables; supportConsts lists head positions holding constants
	// (a candidate must match support.head's slot there) and supportChecks
	// lists (pos, firstPos)
	// pairs where a head variable repeats (the candidate's columns must
	// agree) — precomputed so binding a candidate is straight array work,
	// with no per-candidate map.
	support        *rulePlan
	supportBindPos []int
	supportConsts  []int
	supportChecks  [][2]int
}

// validateWith is the range-restriction check — every head, filter and
// aggregate variable bound by a positive body literal, no variable only
// under negation — with caller-provided pre-bound variables (handler parameters in compiled
// send-rules). An aggregate rule's final head argument is the output slot,
// filled by the aggregate rather than a body binding.
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

	term := func(t Term) int {
		if t.IsVar() {
			return slotOf[t.Var]
		}
		for k, c := range p.consts {
			if c == t.Const {
				return len(slotOf) + k
			}
		}
		p.consts = append(p.consts, t.Const)
		p.nslots++
		return p.nslots - 1
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
			lp := litPlan{pred: l.Pred, negated: l.Negated}
			if l.Negated {
				lp.negArgs = make([]int, len(l.Args))
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

	headArgs := r.Head.Args
	if r.Agg != "" {
		// Aggregate rules emit (groupVars..., aggVar) rows; grouping and
		// folding happen in the caller over these rows.
		headArgs = append(append([]Term{}, headArgs[:len(headArgs)-1]...), V(r.AggVar))
	}
	p.head = make([]int, len(headArgs))
	for i, t := range headArgs {
		p.head[i] = term(t)
	}
	for _, order := range p.orders {
		if len(order) == 0 {
			continue
		}
		lp := &order[len(order)-1]
		if lp.negated || lp.allBound || len(lp.checkPos)+len(lp.filters) > 0 {
			continue
		}
		lp.emit = make([]int, len(p.head))
		for j, slot := range p.head {
			lp.emit[j] = slot
			if k := slices.Index(lp.freeSlots, slot); k >= 0 {
				lp.emit[j] = -1 - lp.freePos[k]
			}
		}
	}
	return p, nil
}

// preBatch is what a run's positive non-delta literals read besides db
// during DRed over-deletion: db ∪ over, where over holds the batch's
// removed inputs plus the heads over-deleted so far, so each literal joins
// against the state before the deletions. The delta position reads the
// delta verbatim and negated probes read db (over-deletion runs on
// monotone components only). The zero value reads db.
type preBatch struct {
	over *Database
}

// run executes the standard join order on db with the leading slots
// preset, appending each derived head row to out; with a nil out it stops
// at the first row. It reports whether the rule derived a row.
func (p *rulePlan) run(db *Database, preset []uint64, out *rowList) bool {
	e := p.exec(db)
	copy(e.env, preset)
	if e.start(p.orders[0], preBatch{}, out) {
		e.walk(0)
	}
	return e.found
}

// runSegmented drives the delta-first order for body literal deltaIdx over
// an explicit list of delta rows: for each row in order, it appends to out
// what the rule derives with that literal bound to it and every other
// literal read under view. deltaIdx must name a non-negated body literal
// (those have a delta-first order).
func (p *rulePlan) runSegmented(db *Database, deltaIdx int, delta *rowList, view preBatch, out *rowList) {
	order := p.orders[1+deltaIdx]
	e := p.exec(db)
	if delta.len() == 0 || !e.start(order, view, out) {
		return
	}
	first := &order[0]
	key := e.scratch[0][:len(first.probeArgs)]
	for k, slot := range first.probeArgs {
		key[k] = e.env[slot] // constants only: no variable is bound yet
	}
	for i, n := 0, delta.len(); i < n; i++ {
		// The delta literal's constant columns must agree; step then binds
		// and checks it exactly as it would a row found by index lookup.
		if row := delta.row(i); projEqual(row, first.probePos, key) {
			e.step(0, row)
		}
	}
}

// rowList is a pointer-free list of encoded rows of one arity: a delta
// batch, a drive's emissions, a round's frontier. Like a relation's slab it
// spends one word on a row of arity 0.
type rowList struct {
	arity int
	w     []uint64
}

func (l *rowList) len() int {
	if l == nil {
		return 0
	}
	return len(l.w) / max(l.arity, 1)
}

func (l *rowList) row(i int) []uint64 { return l.w[i*max(l.arity, 1):][:l.arity] }

func (l *rowList) add(row []uint64) {
	if l.arity == 0 {
		l.w = append(l.w, 0)
	}
	l.w = append(l.w, row...)
}

func (l *rowList) addTuple(d *dict, t Tuple) {
	if l.arity == 0 {
		l.w = append(l.w, 0)
	}
	l.w = d.encodeRow(l.w, t)
}

func (l *rowList) reset(arity int) {
	l.arity = arity
	l.w = l.w[:0]
}

// emit appends the row whose column j is env[from[j]], or, where from[j] <
// 0, row[-1-from[j]].
func (l *rowList) emit(env, row []uint64, from []int) {
	if l.arity == 0 {
		l.w = append(l.w, 0)
	}
	for _, f := range from {
		if f < 0 {
			l.w = append(l.w, row[-1-f])
		} else {
			l.w = append(l.w, env[f])
		}
	}
}

// planExec runs one compiled plan on one database: the flat binding
// environment, whose constant slots hold the plan's constants encoded once
// in the database's dictionary, probe scratch for each position wide enough
// for the literal any of the plan's join orders puts there, and the
// recursive join walk. A Database keeps one per plan (exec), and every run
// of the plan on it reuses it. That is safe because no run starts inside
// another run's walk: the walk writes rows to a list and calls nothing
// that runs a plan.
type planExec struct {
	p       *rulePlan
	db      *Database
	env     []uint64
	scratch [][]uint64

	// The run in progress: its join order and view, the list it writes head
	// rows to (nil: stop at the first), and whether it derived one.
	order []litPlan
	view  preBatch
	out   *rowList
	found bool
}

// exec returns db's executor for p, made on first use. A slot beyond a
// run's preset is always written by the literal that binds it before any
// deeper position reads it, so what an earlier run left in env is never
// observed.
func (p *rulePlan) exec(db *Database) *planExec {
	if e := db.execs[p]; e != nil {
		return e
	}
	e := &planExec{p: p, db: db, env: make([]uint64, p.nslots), scratch: make([][]uint64, len(p.r.Body))}
	for k, c := range p.consts {
		e.env[p.nslots-len(p.consts)+k] = db.dict.encode(c)
	}
	for _, order := range p.orders {
		for i := range order {
			if k := len(order[i].probeArgs) + len(order[i].negArgs); k > len(e.scratch[i]) {
				e.scratch[i] = make([]uint64, k)
			}
		}
	}
	if db.execs == nil {
		db.execs = map[*rulePlan]*planExec{}
	}
	db.execs[p] = e
	return e
}

// start readies e for a run of order under view into out, the caller
// having preset env's leading slots, and reports whether the plan's
// pre-filters (constants and preset slots only) pass.
func (e *planExec) start(order []litPlan, view preBatch, out *rowList) bool {
	e.order, e.view, e.out, e.found = order, view, out, false
	return e.filtersPass(e.p.preFilters)
}

func (e *planExec) filtersPass(fs []filterPlan) bool {
	for _, f := range fs {
		if !e.db.dict.compareWords(f.op, e.env[f.l], e.env[f.r]) {
			return false
		}
	}
	return true
}

// step accepts one candidate row for the positive literal at position i —
// free columns bind their slots, repeated variables and the literal's
// filters must agree — and walks on. It reports whether the enumeration
// that produced row should continue: always, unless the run only asks for
// a first row and has it.
func (e *planExec) step(i int, row []uint64) bool {
	lp := &e.order[i]
	for k, pos := range lp.freePos {
		e.env[lp.freeSlots[k]] = row[pos]
	}
	for k, pos := range lp.checkPos {
		if row[pos] != e.env[lp.checkSlots[k]] {
			return true
		}
	}
	if e.filtersPass(lp.filters) {
		e.walk(i + 1)
	}
	return e.out != nil || !e.found
}

// walk recurses through the join order from position i, writing head rows
// at the leaves, or straight from the rows a last literal's emit list
// probes.
func (e *planExec) walk(i int) {
	if i == len(e.order) {
		e.found = true
		if e.out != nil {
			e.out.emit(e.env, nil, e.p.head)
		}
		return
	}
	lp := &e.order[i]
	if lp.negated {
		if rel := e.db.Get(lp.pred); rel != nil {
			key := e.scratch[i][:len(lp.negArgs)]
			for j, slot := range lp.negArgs {
				key[j] = e.env[slot]
			}
			if rel.findRow(key) >= 0 {
				return
			}
		}
		e.walk(i + 1) // an absent relation holds nothing: negation holds
		return
	}
	// The literal's sources in enumeration order, by e.view's policy. The
	// delta literal never gets here: runSegmented steps it directly.
	var srcs [2]*Relation
	n := 0
	if rel := e.db.Get(lp.pred); rel != nil {
		srcs[0], n = rel, 1
	}
	if e.view.over != nil {
		// An empty overlay is skipped, so its index is first built (and
		// from then on maintained) only once a probe can hit it.
		if o := e.view.over.Get(lp.pred); o != nil && o.Len() > 0 {
			srcs[n] = o
			n++
		}
	}
	key := e.scratch[i][:len(lp.probeArgs)]
	for k, slot := range lp.probeArgs {
		key[k] = e.env[slot]
	}
	for _, src := range srcs[:n] {
		switch {
		case len(lp.probePos) == 0:
			for s, end := 0, src.slots(); s < end; s++ {
				if src.live(s) && !e.step(i, src.row(s)) {
					return
				}
			}
		case lp.allBound:
			// Existence check: probePos covers every column in order, so
			// key is the full row; the membership table answers directly.
			// The literal binds nothing, so no filter waits on it.
			if src.findRow(key) >= 0 {
				e.walk(i + 1)
				return
			}
		default:
			ci := src.index(lp.probePos)
			s, last := ci.bucket(src, key)
			if lp.emit != nil && s >= 0 {
				e.found = true
				if e.out == nil {
					return
				}
				for ; s >= 0; s = ci.after(s, last) {
					e.out.emit(e.env, src.row(s), lp.emit)
				}
				continue
			}
			for ; s >= 0; s = ci.after(s, last) {
				if !e.step(i, src.row(s)) {
					return
				}
			}
		}
	}
}

// components reads the rules once. It runs Tarjan's strongly connected
// components algorithm over the head-dependency graph — an edge from each
// rule head to every rule-defined predicate its body reads, negated or not
// — visiting heads in first-appearance order, and returns the components
// in emission order with each one's rules in program order. Tarjan emits a
// component only after every component it reaches, so that order is
// topological. The program is stratifiable exactly when no negated literal
// and no aggregate rule reads its own component. The same walk records each
// predicate's arity and rejects a predicate used at two.
func components(rules []Rule) ([][]Rule, map[string]int, error) {
	arity := map[string]int{}
	use := func(a Atom) error {
		if n, ok := arity[a.Pred]; ok && n != len(a.Args) {
			return fmt.Errorf("datalog: predicate %s is used with arity %d and %d", a.Pred, n, len(a.Args))
		}
		arity[a.Pred] = len(a.Args)
		return nil
	}
	id := map[string]int{} // head → first-appearance number
	var byHead [][]Rule    // each head's rules, program order
	for _, r := range rules {
		if err := use(r.Head); err != nil {
			return nil, nil, err
		}
		for _, l := range r.Body {
			if err := use(l.Atom); err != nil {
				return nil, nil, err
			}
		}
		h, ok := id[r.Head.Pred]
		if !ok {
			h = len(byHead)
			id[r.Head.Pred] = h
			byHead = append(byHead, nil)
		}
		byHead[h] = append(byHead[h], r)
	}
	// index is a head's visit number, from 1 (0: unvisited); comp is its
	// component, -1 while it is on the stack.
	n := len(byHead)
	index, low, comp := make([]int, n), make([]int, n), make([]int, n)
	var stack []int
	var out [][]Rule
	next := 0
	var visit func(v int)
	visit = func(v int) {
		next++
		index[v], low[v], comp[v] = next, next, -1
		stack = append(stack, v)
		for _, r := range byHead[v] {
			for _, l := range r.Body {
				w, ok := id[l.Pred]
				switch {
				case !ok:
				case index[w] == 0:
					visit(w)
					low[v] = min(low[v], low[w])
				case comp[w] < 0:
					low[v] = min(low[v], index[w])
				}
			}
		}
		if low[v] != index[v] {
			return
		}
		c := len(out)
		for w := -1; w != v; {
			w, stack = stack[len(stack)-1], stack[:len(stack)-1]
			comp[w] = c
		}
		out = append(out, nil)
	}
	for v := range n {
		if index[v] == 0 {
			visit(v)
		}
	}
	for _, r := range rules {
		c := comp[id[r.Head.Pred]]
		for _, l := range r.Body {
			if w, ok := id[l.Pred]; ok && comp[w] == c && (l.Negated || r.Agg != "") {
				return nil, nil, fmt.Errorf("datalog: program is not stratifiable (negation or aggregation through recursion)")
			}
		}
		out[c] = append(out[c], r)
	}
	return out, arity, nil
}

// register checks db's relations against the program's arities and then
// registers every predicate the program names, inputs included, at its
// arity — so no relation an evaluator reads is missing or of another
// arity. It returns the names it created, sorted.
func (p *Program) register(db *Database) (added []string, err error) {
	if p.arity == nil {
		return nil, fmt.Errorf("datalog: program was not made by NewProgram")
	}
	for _, name := range db.Names() {
		if want, ok := p.arity[name]; ok && db.Get(name).Arity != want {
			return nil, fmt.Errorf("datalog: relation %s has arity %d but the program uses %d", name, db.Get(name).Arity, want)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(p.arity)) {
		if db.Get(name) == nil {
			db.Ensure(name, p.arity[name])
			added = append(added, name)
		}
	}
	return added, nil
}

// compileProgramRule compiles one program rule and, for a non-aggregate
// rule, its support plan for DRed re-derivation: the body with the
// distinct head variables pre-bound, plus the precomputed
// candidate-binding metadata.
func compileProgramRule(r Rule) (*rulePlan, error) {
	pl, err := compileRule(r, nil, false)
	if err != nil || r.Agg != "" {
		return pl, err
	}
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
	sp, err := compileRule(r, headVars, true)
	if err != nil {
		return nil, err
	}
	pl.support = sp
	pl.supportBindPos = make([]int, len(headVars))
	for k, v := range headVars {
		pl.supportBindPos[k] = firstPos[v]
	}
	pl.supportConsts = consts
	pl.supportChecks = checks
	return pl, nil
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
// the declared boundVars (missing entries are an error). The rule emits
// into db's reused word buffer, and each row is decoded once, into one
// payload array allocated per call: the rows travel on as message payloads,
// so the array is never reused. A bound value the database has never
// stored is compared and handed back without being interned.
func (pr *PreparedRule) Derive(db *Database, bound map[string]any) (Rows, error) {
	d := db.dict
	d.resetTemps()
	var buf [8]uint64
	preset := buf[:0]
	for _, v := range pr.boundVars {
		val, ok := bound[v]
		if !ok {
			return Rows{}, fmt.Errorf("datalog: prepared rule %s: no binding for ?%s", pr.plan.r.Head.Pred, v)
		}
		preset = append(preset, d.probe(val))
	}
	words := &db.derived
	words.reset(len(pr.plan.head))
	pr.plan.run(db, preset, words)
	n := words.len()
	if n == 0 {
		return Rows{}, nil
	}
	vals := make([]any, n*words.arity)
	if words.arity > 0 {
		d.decodeRow(vals, words.w)
	}
	return NewRows(n, words.arity, vals), nil
}

// Rows is a derived set: n rows of one arity, flat in one payload array.
// Row views share that array, so a row is a Tuple with no allocation of
// its own; a row of arity 0 is counted, not stored.
type Rows struct {
	n, arity int
	vals     []any
}

// NewRows wraps vals, which holds n rows of arity values each in row
// order, as Rows.
func NewRows(n, arity int, vals []any) Rows { return Rows{n: n, arity: arity, vals: vals} }

// Len returns the number of rows.
func (r Rows) Len() int { return r.n }

// Row returns row i, a view into the payload array capped at its own end.
func (r Rows) Row(i int) Tuple {
	lo := i * r.arity
	return Tuple(r.vals[lo : lo+r.arity : lo+r.arity])
}
