package datalog

// This file holds DRed's (delete-and-rederive) support check. DRed
// maintains deletions for every monotone component, recursive or not, in
// three steps of a Tick (tick.go, DESIGN.md §8): over-delete rounds,
// reading the pre-batch view through an overlay (preBatch in plan.go),
// tentatively delete every head tuple with a
// derivation that used a deleted one; once that is done everywhere, each
// candidate with a derivation from live tuples left survives — each rule's
// support plan (the body with the head variables pre-bound) makes that a
// selective existence query; the survivors and the batch's additions seed
// semi-naive insert rounds. A tuple over-deleted and put back leaves no
// record in the delta.

// supportChecker answers "does any derivation of this over-deleted tuple
// survive in the current database?" for the candidates of one DRed
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
			sc.execs[i] = pl.support.newExec(db, pl.support.orders[0], preBatch{}, stop)
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
