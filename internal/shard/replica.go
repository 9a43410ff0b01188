package shard

import (
	"sort"

	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// replica is one shard server: it owns one hash-shard of every sharded
// relation (plus a full copy of every mirrored one), runs its share of
// each monotone component's drives through datalog.Program.Drive (the
// single-node kernel's compiled plans), ships non-local emissions to the
// owning replica, and recomputes mirrored non-monotone components
// locally. What lives here is only what is distributed: routing,
// designated-driver filtering, barriers, epoch/attempt fencing and the
// undo log. All tick-attempt work is staged against that log; a
// restarted attempt rolls the log back, so redelivered or retried
// protocol traffic can never double-apply.
type replica struct {
	dep  *Deployment
	self int
	db   *datalog.Database

	committed       uint64 // last committed tick
	curTick, curAtt uint64
	curEpoch        uint64 // highest coordinator epoch seen; older traffic is fenced
	coordFrom       string // coordinator that prepared the current attempt (reply target)

	// Staging for the current attempt.
	undo       []datalog.DeltaOp // realized changes in application order
	adds, dels *datalog.Database // net realized changes this tick, per pred
	pend       map[string][]datalog.Tuple
	inbox      map[rkey][]xchMsg
	await      map[rkey]int // apply barriers waiting on more xch traffic
}

func newReplica(dep *Deployment, self int) *replica {
	r := &replica{dep: dep, self: self, db: datalog.NewDatabase(), coordFrom: dep.coordNames[0]}
	for pred, arity := range dep.arities {
		r.db.Ensure(pred, arity)
	}
	r.clearStaging()
	return r
}

// clearStaging forgets the current attempt's staging — after a rollback,
// or at commit, when the staged changes become the committed state.
func (r *replica) clearStaging() {
	r.undo = nil
	r.adds = r.db.Scratch()
	r.dels = r.db.Scratch() // the delete phase's overlay: joined against r.db in place
	r.pend = map[string][]datalog.Tuple{}
	r.inbox = map[rkey][]xchMsg{}
	r.await = map[rkey]int{}
}

// record books one realized change: the undo log gets the exact op, and
// the net per-pred change sets absorb churn (a delete of a tick-added
// tuple, or an insert of a tick-deleted one, cancels instead of
// accumulating).
func (r *replica) record(del bool, pred string, t datalog.Tuple) {
	r.undo = append(r.undo, datalog.DeltaOp{Del: del, Pred: pred, T: t})
	gain, cancel := r.adds, r.dels
	if del {
		gain, cancel = r.dels, r.adds
	}
	if c := cancel.Get(pred); c != nil && c.Delete(t) {
		return
	}
	gain.Ensure(pred, len(t)).Insert(t)
}

// nonEmpty reports whether net holds any tuple of pred.
func nonEmpty(net *datalog.Database, pred string) bool {
	rel := net.Get(pred)
	return rel != nil && rel.Len() > 0
}

// seedFrontier is a round-0 frontier: the tick's net changes to inputs.
func seedFrontier(net *datalog.Database, inputs []string) map[string][]datalog.Tuple {
	pend := map[string][]datalog.Tuple{}
	for _, in := range inputs {
		if nonEmpty(net, in) {
			pend[in] = net.Get(in).Tuples()
		}
	}
	return pend
}

func (r *replica) name() string { return r.dep.replicaNames[r.self] }

func (r *replica) reply(m rsp) {
	m.From = r.self
	m.Committed = r.committed
	r.dep.net.Send(r.name(), r.coordFrom, m)
}

func (r *replica) handle(now simnet.Time, msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case req:
		r.handleReq(msg.From, m)
	case xchMsg:
		r.handleXch(m)
	}
}

func (r *replica) handleReq(from string, m req) {
	switch m.Kind {
	case reqPrepare:
		// Epoch fence: a prepare from a deposed leader must not reset
		// staging a newer leader set up. Prepare and commit are the only
		// requests allowed to raise the epoch — both are safe entry points
		// for a newly elected leader.
		if m.Epoch < r.curEpoch {
			r.dep.metrics.fencedReqs.Add(1)
			return
		}
		r.curEpoch = m.Epoch
		r.coordFrom = from
		if m.Tick <= r.committed {
			// Already folded in; answer honestly so a finalizing leader's
			// collect sees Committed.
			r.reply(rsp{Tick: m.Tick, Att: m.Att, Kind: reqPrepare})
			return
		}
		r.db.Undo(r.undo) // the current attempt's realized changes, newest first
		r.clearStaging()
		r.curTick, r.curAtt = m.Tick, m.Att
		r.reply(rsp{Tick: m.Tick, Att: m.Att, Kind: reqPrepare})
	case reqCommit:
		if m.Epoch < r.curEpoch {
			r.dep.metrics.fencedCommits.Add(1)
			return
		}
		r.curEpoch = m.Epoch
		r.coordFrom = from
		// Attempt fencing on commit: the commit decree names the exact
		// attempt every replica fully staged; anything else (a stale
		// leader's retry racing an attempt bump) must not seal partial
		// staging.
		if r.committed < m.Tick && r.curTick == m.Tick && r.curAtt == m.Att {
			r.committed = m.Tick
			r.clearStaging()
		}
		r.reply(rsp{Tick: m.Tick, Att: m.Att, Kind: reqCommit})
	default:
		if m.Epoch != r.curEpoch {
			if m.Epoch < r.curEpoch {
				r.dep.metrics.fencedReqs.Add(1)
			}
			return // mid-attempt traffic never changes the epoch
		}
		if m.Tick != r.curTick || m.Att != r.curAtt || r.committed >= m.Tick {
			return // stale attempt
		}
		switch m.Kind {
		case reqOps:
			r.applyBase(m.Ops)
			r.reply(rsp{Tick: m.Tick, Att: m.Att, Kind: reqOps})
		case reqCompBegin:
			c := r.dep.comps[m.Comp]
			var hasAdd, hasDel bool
			for _, in := range c.inputs {
				hasAdd = hasAdd || nonEmpty(r.adds, in)
				hasDel = hasDel || nonEmpty(r.dels, in)
			}
			r.reply(rsp{Tick: m.Tick, Att: m.Att, Kind: reqCompBegin, Comp: m.Comp, HasAdd: hasAdd, HasDel: hasDel})
		case reqRound:
			r.runRound(m)
		case reqApply:
			k := rkey{m.Tick, m.Att, m.Comp, m.Phase, m.Round}
			r.await[k] = m.Expect
			r.maybeApply(k)
		case reqRecompute:
			r.recompute(m)
		}
	}
}

func (r *replica) applyBase(ops []datalog.DeltaOp) {
	for _, op := range ops {
		rel := r.db.Get(op.Pred)
		if rel == nil || len(op.T) != rel.Arity {
			continue // Submit validates; defensive
		}
		if op.Del {
			if rel.Delete(op.T) {
				r.record(true, op.Pred, op.T)
			}
		} else if rel.Insert(op.T) {
			r.record(false, op.Pred, op.T)
		}
	}
}

// runRound drives one exchange round of a monotone component phase: the
// current frontier (seeded from the tick's net input changes on round 0)
// is pushed through every rule position by the datalog drive (over-delete
// rounds with this tick's net deletions, r.dels, as the overlay), emissions are
// grouped by owning replica, remote batches go out as xch messages, and the
// local batch is stashed in the inbox so apply-time ordering treats self
// like any peer.
func (r *replica) runRound(m req) {
	c := r.dep.comps[m.Comp]
	if m.Round == 0 {
		switch {
		case m.Phase == phaseDelete:
			r.pend = seedFrontier(r.dels, c.inputs)
		case m.Phase == phaseInsert && m.SeedInputs:
			r.pend = seedFrontier(r.adds, c.inputs)
		}
		// phaseInsert without SeedInputs keeps the pend the rederive
		// apply left behind; phaseRederive ignores pend entirely.
	}

	batches := make([][]xchItem, r.dep.place.N)
	emitted := r.db.Scratch() // per-pred dedup of this round's emissions
	emit := func(pred string, del bool, t datalog.Tuple) {
		if !emitted.Ensure(pred, len(t)).Insert(t) {
			return
		}
		spec := r.dep.place.Specs[pred]
		if spec.Mirrored {
			// Local membership is authoritative for mirrored preds (all
			// copies agree), so no-op traffic is filtered at the source.
			rel := r.db.Get(pred)
			if del == !rel.Contains(t) {
				return
			}
			for d := range batches {
				batches[d] = append(batches[d], xchItem{Pred: pred, Del: del, T: t})
			}
			return
		}
		d := r.dep.place.Owner(pred, t)
		batches[d] = append(batches[d], xchItem{Pred: pred, Del: del, T: t})
	}

	// Over-deletion joins against the pre-deletion view: r.dels holds the
	// input deletions that seeded the phase, and record grows it with every
	// head the phase's apply barriers delete.
	del := m.Phase == phaseDelete
	var over *datalog.Database
	if del {
		over = r.dels
	}
	for ri, rule := range c.rules {
		emitHead := func(h datalog.Tuple) { emit(rule.Head.Pred, del, h) }
		if m.Phase == phaseRederive {
			// One full immediate-consequence pass over the post-deletion
			// state, driven through body position 0's local extent.
			lit := rule.Body[0]
			frontier := r.db.Get(lit.Pred).Tuples()
			frontier = r.filterDriven(c, ri, 0, frontier)
			r.dep.prog.Drive(r.db, m.Comp, ri, 0, frontier, nil, emitHead)
			continue
		}
		for i := range rule.Body {
			frontier := r.pend[rule.Body[i].Pred]
			if len(frontier) == 0 {
				continue
			}
			frontier = r.filterDriven(c, ri, i, frontier)
			r.dep.prog.Drive(r.db, m.Comp, ri, i, frontier, over, emitHead)
		}
	}

	k := rkey{m.Tick, m.Att, m.Comp, m.Phase, m.Round}
	sentTo := make([]bool, r.dep.place.N)
	for d, items := range batches {
		if len(items) == 0 {
			continue
		}
		x := xchMsg{Tick: m.Tick, Att: m.Att, Epoch: r.curEpoch, Comp: m.Comp, Phase: m.Phase, Round: m.Round, From: r.self, Items: items}
		if d == r.self {
			r.inbox[k] = append(r.inbox[k], x)
			continue
		}
		sentTo[d] = true
		r.dep.net.Send(r.name(), r.dep.replicaNames[d], x)
	}
	r.reply(rsp{Tick: m.Tick, Att: m.Att, Kind: reqRound, Comp: m.Comp, Phase: m.Phase, Round: m.Round, SentTo: sentTo})
}

// filterDriven drops frontier tuples this replica must not drive: when
// every body literal of the rule is mirrored, every replica holds identical
// state and only the tuple's designated driver acts.
func (r *replica) filterDriven(c *compMeta, ri, pos int, frontier []datalog.Tuple) []datalog.Tuple {
	if !c.designated[ri] {
		return frontier
	}
	var out []datalog.Tuple
	for _, t := range frontier {
		if r.dep.place.Owner(c.rules[ri].Body[pos].Pred, t) == r.self {
			out = append(out, t)
		}
	}
	return out
}

func (r *replica) handleXch(m xchMsg) {
	if m.Epoch != r.curEpoch {
		if m.Epoch < r.curEpoch {
			r.dep.metrics.fencedReqs.Add(1)
		}
		return
	}
	if m.Tick != r.curTick || m.Att != r.curAtt || r.committed >= m.Tick {
		return
	}
	k := rkey{m.Tick, m.Att, m.Comp, m.Phase, m.Round}
	r.inbox[k] = append(r.inbox[k], m)
	r.maybeApply(k)
}

// maybeApply completes an exchange barrier once every expected xch has
// arrived: batches are applied in sender order (not arrival order), each
// accepted change is recorded, and the accepted tuples become the next
// round's frontier. The coordinator learns the frontier size and decides
// whether another round follows.
func (r *replica) maybeApply(k rkey) {
	expect, ok := r.await[k]
	if !ok {
		return
	}
	got := 0
	for _, x := range r.inbox[k] {
		if x.From != r.self {
			got++
		}
	}
	if got < expect {
		return
	}
	delete(r.await, k)
	batches := r.inbox[k]
	delete(r.inbox, k)
	sort.Slice(batches, func(i, j int) bool { return batches[i].From < batches[j].From })

	next := map[string][]datalog.Tuple{}
	for _, x := range batches {
		for _, it := range x.Items {
			rel := r.db.Get(it.Pred)
			if rel == nil {
				continue
			}
			var changed bool
			if it.Del {
				changed = rel.Delete(it.T)
			} else {
				changed = rel.Insert(it.T)
			}
			if !changed {
				continue
			}
			r.record(it.Del, it.Pred, it.T)
			next[it.Pred] = append(next[it.Pred], it.T)
		}
	}
	r.pend = next
	n := 0
	for _, ts := range next {
		n += len(ts)
	}
	r.reply(rsp{Tick: k.tick, Att: k.att, Kind: reqApply, Comp: k.comp, Phase: k.phase, Round: k.round, Next: n})
}

// recompute re-evaluates a non-monotone component locally: its inputs are
// fully mirrored, so clearing the heads and re-running the component's own
// fixpoint on the replica database reproduces single-node semantics
// (stratified negation, aggregates) exactly; the old-vs-new diff is
// recorded so downstream components see precise deltas and the undo log
// can roll the attempt back.
func (r *replica) recompute(m req) {
	c := r.dep.comps[m.Comp]
	old := map[string]*datalog.Relation{}
	for _, h := range c.heads {
		rel := r.db.Get(h)
		old[h] = rel.Clone()
		rel.Clear()
	}
	if _, err := c.sub.Eval(r.db); err != nil {
		// Unreachable for a component compiled at Deploy time; leave the
		// heads cleared — the attempt will be rolled back on retry.
		r.reply(rsp{Tick: m.Tick, Att: m.Att, Kind: reqRecompute, Comp: m.Comp})
		return
	}
	for _, h := range c.heads {
		rel := r.db.Get(h)
		for _, t := range old[h].Tuples() {
			if !rel.Contains(t) {
				r.record(true, h, t)
			}
		}
		for _, t := range rel.Tuples() {
			if !old[h].Contains(t) {
				r.record(false, h, t)
			}
		}
	}
	r.reply(rsp{Tick: m.Tick, Att: m.Att, Kind: reqRecompute, Comp: m.Comp})
}
