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
// evaluable. Eval, PreparedRule.Derive, the aggregate path, every
// Incremental maintenance strategy and the shard replicas' Ticks all
// execute these plans.
// The interpretive binding-map walk (deriveRule in eval.go, behind
// EvalNaive) is the oracle only: the reference the differential tests
// compare every plan-driven path against, and BenchmarkEvalNaiveTCChain's
// baseline.

// A compiled term is a slot in the flat binding environment: variables
// first, then one slot per constant, which newExec fills with the constant's
// word in the dictionary of the database the plan is about to run on (a plan
// is compiled once and runs on many).

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
	// pre-bound (supportVars, in first-appearance order): binding a concrete
	// head tuple and running it answers "does any derivation of this tuple
	// survive in the current database?" — the DRed re-derivation check.
	// Compiled by NewProgram for every non-aggregate rule; nil otherwise.
	// supportBindPos[k] is the head-arg position whose value binds
	// supportVars[k]; supportConsts lists head positions holding constants
	// (a candidate must match support.head's slot there) and supportChecks
	// lists (pos, firstPos)
	// pairs where a head variable repeats (the candidate's columns must
	// agree) — precomputed so binding a candidate is straight array work,
	// with no per-candidate map.
	support        *rulePlan
	supportVars    []string
	supportBindPos []int
	supportConsts  []int
	supportChecks  [][2]int
}

// validateWith is the range-restriction check (Rule.Validate) with
// caller-provided pre-bound variables (handler parameters in compiled
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

// run executes the standard join order against db with the leading slots
// preset; emit receives each derived head row — a view into the executor's
// row buffer, valid until it returns.
func (p *rulePlan) run(db *Database, preset []uint64, emit func([]uint64)) {
	e := p.newExec(db, p.orders[0], preBatch{}, func(w []uint64) bool {
		emit(w)
		return true
	})
	copy(e.env, preset)
	if e.preFiltersPass() {
		e.walk(0)
	}
}

// runSegmented drives the delta-first order for body literal deltaIdx over
// an explicit list of delta rows: for each row in order, it emits what the
// rule derives with that literal bound to it and every other literal read
// under view. deltaIdx must name a non-negated body literal (those have a
// delta-first order); env and scratch are allocated once and reused across
// rows.
func (p *rulePlan) runSegmented(db *Database, deltaIdx int, delta *rowList, view preBatch, emit func([]uint64)) {
	if delta.len() == 0 {
		return
	}
	order := p.orders[1+deltaIdx]
	e := p.newExec(db, order, view, func(w []uint64) bool {
		emit(w)
		return true
	})
	if !e.preFiltersPass() {
		return
	}
	first := &order[0]
	key := e.scratch[0]
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

// planExec is one execution of a compiled join order: the flat binding
// environment, per-position probe scratch, the head row buffer and the
// recursive join walk. It is built once per run and reused across every
// delta row the run drives.
type planExec struct {
	p       *rulePlan
	db      *Database
	dict    *dict
	order   []litPlan
	view    preBatch
	env     []uint64
	scratch [][]uint64
	head    []uint64
	stopped bool
	emit    func([]uint64) bool
}

func (p *rulePlan) newExec(db *Database, order []litPlan, view preBatch, emit func([]uint64) bool) *planExec {
	e := &planExec{p: p, db: db, dict: db.dict, order: order, view: view, emit: emit}
	// One allocation holds env, the head row and the per-position scratch
	// for probe keys and negation probes.
	n := p.nslots + len(p.head)
	for i := range order {
		n += len(order[i].probeArgs) + len(order[i].negArgs)
	}
	buf := make([]uint64, n)
	e.env, buf = buf[:p.nslots:p.nslots], buf[p.nslots:]
	for k, c := range p.consts {
		e.env[p.nslots-len(p.consts)+k] = e.dict.encode(c)
	}
	e.head, buf = buf[:len(p.head):len(p.head)], buf[len(p.head):]
	e.scratch = make([][]uint64, len(order))
	for i := range order {
		k := len(order[i].probeArgs) + len(order[i].negArgs)
		e.scratch[i], buf = buf[:k:k], buf[k:]
	}
	return e
}

// rerun re-arms a finished executor for another run, the caller having
// written fresh preset values into env — the DRed support checker amortizes
// one executor across every candidate of a phase-2 pass this way. Only the
// preset prefix and the stop flag need resetting: a slot beyond the preset
// is always written by the literal that binds it before any deeper position
// reads it, so stale values from the previous run are never observed.
func (e *planExec) rerun() { e.stopped = false }

func (e *planExec) filtersPass(fs []filterPlan) bool {
	for _, f := range fs {
		if !e.dict.compareWords(f.op, e.env[f.l], e.env[f.r]) {
			return false
		}
	}
	return true
}

func (e *planExec) preFiltersPass() bool { return e.filtersPass(e.p.preFilters) }

// step accepts one candidate row for the positive literal at position i —
// free columns bind their slots, repeated variables and the literal's
// filters must agree — and walks on. It reports whether the enumeration
// that produced row should continue.
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
	return !e.stopped
}

// walk recurses through the join order from position i, emitting head
// rows at the leaves.
func (e *planExec) walk(i int) {
	if e.stopped {
		return
	}
	if i == len(e.order) {
		for j, slot := range e.p.head {
			e.head[j] = e.env[slot]
		}
		if !e.emit(e.head) {
			e.stopped = true
		}
		return
	}
	lp := &e.order[i]
	key := e.scratch[i]
	if lp.negated {
		if rel := e.db.Get(lp.pred); rel != nil {
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
			if src.findRow(key) >= 0 {
				if e.filtersPass(lp.filters) {
					e.walk(i + 1)
				}
				return
			}
		default:
			ci := src.index(lp.probePos)
			for s, last := ci.bucket(src, key); s >= 0; s = ci.after(s, last) {
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
	pl.supportVars = headVars
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
// the declared boundVars (missing entries are an error). The result's rows
// are decoded over one backing array; a bound value the database has never
// stored is compared and handed back without being interned.
func (pr *PreparedRule) Derive(db *Database, bound map[string]any) ([]Tuple, error) {
	d := db.dict
	d.resetTemps()
	var buf [8]uint64
	preset := buf[:0]
	for _, v := range pr.boundVars {
		val, ok := bound[v]
		if !ok {
			return nil, fmt.Errorf("datalog: prepared rule %s: no binding for ?%s", pr.plan.r.Head.Pred, v)
		}
		preset = append(preset, d.probe(val))
	}
	rows := rowList{arity: len(pr.plan.head)}
	pr.plan.run(db, preset, rows.add)
	n := rows.len()
	if n == 0 {
		return nil, nil
	}
	out := make([]Tuple, n)
	vals := make([]any, n*rows.arity)
	for i := range out {
		out[i] = d.nextTuple(&vals, rows.row(i))
	}
	return out, nil
}
