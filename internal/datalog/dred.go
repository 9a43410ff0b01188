package datalog

// This file is the DRed (delete-and-rederive) maintenance path for
// recursive monotone components: the classic three-phase algorithm that
// makes deletions as cheap as inserts where the counting algebra is
// unsound (cyclic self-support under recursion).
//
//  1. Over-delete: propagate the batch's deletions through the compiled
//     delta-first plans to a fixpoint, tentatively deleting every head
//     tuple with at least one derivation that used a deleted tuple. The
//     non-delta body positions must read the PRE-batch view — a derivation
//     both of whose body tuples were deleted is only found if the other
//     one is still visible — so the plans run against an overlay database
//     (preBatch in plan.go) holding the batch's removed inputs plus the
//     tuples over-deleted so far: tuples only ever move from the relation
//     into the overlay, keeping the joined view constant. The overlay is
//     made of plain relations, so probing it is an index lookup per join
//     step (a linear scan would make the phase quadratic in the cascade),
//     and its membership hash is the record of what was over-deleted.
//  2. Re-derive: a tentatively deleted tuple survives if it has any
//     derivation from tuples still alive. Candidates queue in discovery
//     order, which is support-dependency order — a tuple over-deleted in
//     round r can only be supported by tuples from rounds < r — so one
//     ordered pass reinstates every directly-supported candidate with its
//     reinstated predecessors already visible, and each rule's support
//     plan (the body compiled with the head variables pre-bound, see
//     plan.go) makes the check a selective existence query. Cross-rule
//     stragglers (support arriving only through a tuple reinstated later
//     in the queue) then propagate semi-naively — each reinstatement
//     drives the delta-first plans once — so no pass ever restarts:
//     both phases stay near-linear in the cascade.
//  3. Insert: the batch's additions propagate with the ordinary semi-naive
//     insert path against the post-deletion state.
//
// The emitted delta is exact and net: a tuple over-deleted but re-derived
// (or re-inserted by phase 3) produces no record, so downstream counting
// components keep their one-signed-change-per-tuple precondition.

// headTuple is one over-deleted candidate in discovery order.
type headTuple struct {
	h string
	t Tuple
}

// applyDRed folds a batch with deletions into a recursive monotone
// component, reading input changes from d and recording net realized head
// changes into it. It returns the number of realized set-level changes.
func (inc *Incremental) applyDRed(c *incComponent, d *Delta) int {
	ensureHeadsPlanned(inc.db, c.plans)

	// Phase 1: over-delete to fixpoint. over is the "still visible" overlay:
	// removed base inputs plus over-deleted heads, growing as the phase
	// discovers more.
	over := &Database{rels: deltaRelations(c.inputs, d.removed)}
	for _, h := range c.heads {
		over.Ensure(h, inc.db.Get(h).Arity)
	}
	var deletedSeq []headTuple // global discovery order = support-dependency order
	driveRounds(inc.db, c.plans, deltaRelations(c.inputs, d.removed), over,
		func(h string, rel *Relation, t Tuple) bool {
			// Delete doubles as the dedup check: a tuple already tentative
			// (or never part of the fixpoint) is absent from the relation,
			// since nothing re-inserts heads during this phase.
			if !rel.Delete(t) {
				return false
			}
			deletedSeq = append(deletedSeq, headTuple{h: h, t: t})
			over.Get(h).Insert(t)
			return true
		})

	// Phase 2: re-derive survivors from live support, in dependency order.
	// Walking deletedSeq means every candidate's support check already sees
	// the candidates reinstated before it — including other heads of the
	// same component — so direct support resolves in one ordered pass.
	// After that, a candidate can only become derivable through a tuple
	// reinstated later in the queue, so reinstatements propagate
	// semi-naively: each one drives the delta-first plans once, and emitted
	// heads that are still-dead candidates (over-deleted, and absent from
	// the relation until this Insert) are themselves reinstated.
	// Near-linear in the cascade, with no full-candidate rescans.
	frontier := map[string]*Relation{}
	checker := newSupportChecker(inc.db, c)
	for _, ht := range deletedSeq {
		if checker.rederivable(ht.h, ht.t) {
			rel := inc.db.Get(ht.h)
			rel.Insert(ht.t)
			fr := frontier[ht.h]
			if fr == nil {
				fr = NewRelation(ht.h, rel.Arity)
				frontier[ht.h] = fr
			}
			fr.appendRaw(ht.t)
		}
	}
	driveRounds(inc.db, c.plans, frontier, nil,
		func(h string, rel *Relation, t Tuple) bool {
			return over.Get(h).Contains(t) && rel.Insert(t)
		})

	// Phase 3: propagate the batch's inserts, recording locally so the
	// final emission can net them against the deletions.
	inserted := NewDelta()
	inc.propagateInserts(c, d, inserted.Insert)

	// Net emission: an over-deleted tuple that neither phase 2 nor phase 3
	// put back is a realized deletion; an inserted tuple that does not
	// merely undo a tentative deletion is a realized insertion. Deletions
	// replay the discovery queue (per-predicate order inside the output
	// delta is the per-head discovery order).
	changes := 0
	for _, ht := range deletedSeq {
		if !inc.db.Get(ht.h).Contains(ht.t) {
			d.Delete(ht.h, ht.t)
			changes++
		}
	}
	for _, h := range c.heads {
		for _, t := range inserted.added[h] {
			if over.Get(h).Contains(t) {
				continue // present before the batch and present after: net zero
			}
			d.Insert(h, t)
			changes++
		}
	}
	return changes
}

// supportChecker answers "does any derivation of this over-deleted tuple
// survive in the current database?" for the candidates of one phase-2
// pass. Each support plan gets one reusable executor (rearmed per
// candidate), and candidate binding runs off the metadata Prepare
// precomputed — no per-candidate maps, closures or scratch allocation,
// which matters when a cascade queues tens of thousands of candidates.
type supportChecker struct {
	plans   []*rulePlan
	execs   []*planExec
	presets [][]any
	found   bool
}

func newSupportChecker(db *Database, c *incComponent) *supportChecker {
	sc := &supportChecker{plans: c.plans}
	sc.execs = make([]*planExec, len(c.plans))
	sc.presets = make([][]any, len(c.plans))
	stop := func(Tuple) bool {
		sc.found = true
		return false // existence established: abandon the walk
	}
	for i, pl := range c.plans {
		if pl.support == nil {
			continue
		}
		sc.execs[i] = pl.support.newExec(db, pl.support.orders[0], -1, nil, preBatch{}, nil, stop)
		sc.presets[i] = make([]any, len(pl.supportVars))
	}
	return sc
}

// rederivable binds t onto each of h's support plans and asks for any
// surviving body instantiation (over-deleted tuples absent, reinstated
// ones present).
func (sc *supportChecker) rederivable(h string, t Tuple) bool {
	for i, pl := range sc.plans {
		r := pl.r
		if r.Head.Pred != h || sc.execs[i] == nil || len(r.Head.Args) != len(t) {
			continue
		}
		// Bind the head: constants must match, repeated variables must agree.
		ok := true
		for _, j := range pl.supportConsts {
			if r.Head.Args[j].Const != t[j] {
				ok = false
				break
			}
		}
		for _, ch := range pl.supportChecks {
			if !ok || t[ch[0]] != t[ch[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		preset := sc.presets[i]
		for k, j := range pl.supportBindPos {
			preset[k] = t[j]
		}
		e := sc.execs[i]
		e.rerun(preset)
		sc.found = false
		if !e.preFiltersPass() {
			continue
		}
		e.walk(0)
		if sc.found {
			return true
		}
	}
	return false
}
