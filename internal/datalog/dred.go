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
//     and its membership table is the record of what was over-deleted.
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

// headRows is a sequence of encoded head rows of mixed predicates — the
// over-deleted candidates in discovery order: pred[k] indexes the
// component's heads, and row k's words follow row k-1's in w.
type headRows struct {
	pred []int32
	w    []uint64
}

// applyDRed folds a batch with deletions into a recursive monotone
// component, reading input changes from d and recording net realized head
// changes into it. It returns the number of realized set-level changes.
func (inc *Incremental) applyDRed(c *incComponent, d *Delta) int {
	ensureHeadsPlanned(inc.db, c.plans)
	headIdx := map[string]int32{}
	rels := make([]*Relation, len(c.Heads))
	for k, h := range c.Heads {
		headIdx[h] = int32(k)
		rels[k] = inc.db.Get(h)
	}

	// Phase 1: over-delete to fixpoint. over is the "still visible" overlay:
	// removed base inputs plus over-deleted heads, growing as the phase
	// discovers more.
	over := inc.deltaRelations(c.Inputs, d.del)
	overHeads := make([]*Relation, len(c.Heads))
	for k, h := range c.Heads {
		overHeads[k] = over.Ensure(h, rels[k].Arity)
	}
	var deleted headRows // global discovery order = support-dependency order
	inc.rounds.driveRounds(inc.db, c.plans, seedRows(c.Inputs, d.del), over,
		func(h string, rel *Relation, w []uint64) bool {
			// deleteRow doubles as the dedup check: a row already tentative
			// (or never part of the fixpoint) is absent from the relation,
			// since nothing re-inserts heads during this phase.
			if !rel.deleteRow(w) {
				return false
			}
			k := headIdx[h]
			deleted.pred = append(deleted.pred, k)
			deleted.w = append(deleted.w, w...)
			overHeads[k].insertRow(w)
			return true
		})

	// Phase 2: re-derive survivors from live support, in dependency order.
	// Walking the deleted sequence means every candidate's support check
	// already sees the candidates reinstated before it — including other
	// heads of the same component — so direct support resolves in one
	// ordered pass. After that, a candidate can only become derivable
	// through a tuple reinstated later in the queue, so reinstatements
	// propagate semi-naively: each one drives the delta-first plans once,
	// and emitted heads that are still-dead candidates (over-deleted, and
	// absent from the relation until this insert) are themselves
	// reinstated. Near-linear in the cascade, with no full-candidate rescans.
	frontier := map[string]*rowList{}
	checker := newSupportChecker(inc.db, c)
	off := 0
	for _, k := range deleted.pred {
		rel := rels[k]
		w := deleted.w[off:][:rel.Arity]
		off += rel.Arity
		if checker.rederivable(rel.Name, w) {
			rel.insertRow(w)
			rowsOf(frontier, rel.Name, rel.Arity).add(w)
		}
	}
	inc.rounds.driveRounds(inc.db, c.plans, frontier, nil,
		func(h string, rel *Relation, w []uint64) bool {
			return overHeads[headIdx[h]].findRow(w) >= 0 && rel.insertRow(w)
		})

	// Phase 3: propagate the batch's inserts, recording locally so the
	// final emission can net them against the deletions.
	inserted := map[string]*rowList{}
	inc.propagateInserts(c, d, func(h string, w []uint64) { rowsOf(inserted, h, len(w)).add(w) })

	// Net emission: an over-deleted tuple that neither phase 2 nor phase 3
	// put back is a realized deletion; an inserted tuple that does not
	// merely undo a tentative deletion is a realized insertion. Deletions
	// replay the discovery queue (per-predicate order inside the output
	// delta is the per-head discovery order).
	changes := 0
	off = 0
	for _, k := range deleted.pred {
		rel := rels[k]
		w := deleted.w[off:][:rel.Arity]
		off += rel.Arity
		if rel.findRow(w) < 0 {
			d.deleteRow(rel.Name, w)
			changes++
		}
	}
	for k, h := range c.Heads {
		for l, i := inserted[h], 0; i < l.len(); i++ {
			if overHeads[k].findRow(l.row(i)) >= 0 {
				continue // present before the batch and present after: net zero
			}
			d.insertRow(h, l.row(i))
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
	plans []*rulePlan
	execs []*planExec
	found bool
}

func newSupportChecker(db *Database, c *incComponent) *supportChecker {
	sc := &supportChecker{plans: c.plans}
	sc.execs = make([]*planExec, len(c.plans))
	stop := func([]uint64) bool {
		sc.found = true
		return false // existence established: abandon the walk
	}
	for i, pl := range c.plans {
		if pl.support != nil {
			sc.execs[i] = pl.support.newExec(db, pl.support.orders[0], -1, preBatch{}, stop)
		}
	}
	return sc
}

// rederivable binds the encoded row w onto each of h's support plans and
// asks for any surviving body instantiation (over-deleted tuples absent,
// reinstated ones present).
func (sc *supportChecker) rederivable(h string, w []uint64) bool {
	for i, pl := range sc.plans {
		e := sc.execs[i]
		if pl.r.Head.Pred != h || e == nil || len(pl.r.Head.Args) != len(w) {
			continue
		}
		// Bind the head: constants must match, repeated variables must agree.
		ok := true
		for _, j := range pl.supportConsts {
			if w[j] != e.env[pl.support.head[j]] {
				ok = false
				break
			}
		}
		for _, ch := range pl.supportChecks {
			if !ok || w[ch[0]] != w[ch[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for k, j := range pl.supportBindPos {
			e.env[k] = w[j]
		}
		e.rerun()
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
