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

// rederivable reports whether any derivation of the over-deleted encoded
// row w of head h survives in db (over-deleted tuples absent, reinstated
// ones present). For each of plans' rules for h whose head w matches, it
// writes w's head variables into the preset slots of db's executor for the
// rule's support plan — off the metadata NewProgram precomputed, with no
// per-candidate map — and runs that plan with no list, which stops at the
// first derivation.
func rederivable(db *Database, plans []*rulePlan, h string, w []uint64) bool {
	for _, pl := range plans {
		sp := pl.support
		if sp == nil || pl.r.Head.Pred != h || len(pl.r.Head.Args) != len(w) {
			continue
		}
		// Bind the head: constants must match, repeated variables must agree.
		env, ok := sp.exec(db).env, true
		for _, j := range pl.supportConsts {
			ok = ok && w[j] == env[sp.head[j]]
		}
		for _, ch := range pl.supportChecks {
			ok = ok && w[ch[0]] == w[ch[1]]
		}
		if !ok {
			continue
		}
		for k, j := range pl.supportBindPos {
			env[k] = w[j]
		}
		if sp.run(db, env[:len(pl.supportBindPos)], nil) {
			return true
		}
	}
	return false
}
