package shard

import (
	"sort"

	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// replica is one shard server: it owns one hash-shard of every sharded
// relation (plus a full copy of every mirrored one) and maintains them with
// the single-node engine, a datalog.Tick, stepped one exchange round at a
// time: what a round emits goes to the replica owning it, and what arrives
// is accepted at the round's barrier in sender order. Each replica sends
// every peer one batch per round, so a replica closes its own barrier once
// it holds N. What lives here is only what is distributed: routing,
// designated drivers, barriers and epoch/attempt fencing. The tick's Abort
// is the undo log: a restarted attempt rolls the staged one back, so
// redelivered or retried protocol traffic can never double-apply.
type replica struct {
	dep  *Deployment
	self int
	db   *datalog.Database
	inc  *datalog.Incremental
	site datalog.Site // what this replica holds, for its ticks

	committed       uint64 // last committed tick
	curTick, curAtt uint64
	curEpoch        uint64 // highest coordinator epoch seen; older traffic is fenced
	coordFrom       string // coordinator that prepared the current attempt (reply target)

	// Staging for the current attempt.
	tick   *datalog.Tick     // nil until the attempt's ops are applied
	inbox  map[rkey][]xchMsg // round batches by barrier, this replica's own included
	driven *req              // the round driven here and not yet answered
	last   bool              // driven's Round reported its component's last phase
}

func newReplica(dep *Deployment, self int) (*replica, error) {
	db := datalog.NewDatabase()
	for pred, arity := range dep.arities {
		db.Ensure(pred, arity)
	}
	inc, err := datalog.NewIncremental(dep.prog, db)
	if err != nil {
		return nil, err
	}
	r := &replica{dep: dep, self: self, db: db, inc: inc, coordFrom: dep.coordNames[0]}
	r.site.Whole = func(pred string) bool { return dep.place.N == 1 || dep.place.Specs[pred].Mirrored }
	r.site.Owner = func(pred string, w []uint64, vals []any) int {
		if s := dep.place.Specs[pred]; !s.Mirrored {
			return shardOfRow(w, vals, s.Col, dep.place.N)
		}
		return -1
	}
	if dep.place.N > 1 { // a row every replica holds is driven by its whole-tuple hash's replica
		r.site.Mine = func(w []uint64, vals []any) bool { return shardOfRow(w, vals, -1, dep.place.N) == self }
	}
	r.clearStaging()
	return r, nil
}

// clearStaging forgets the current attempt's staging — after a rollback,
// or at commit, when the staged changes become the committed state.
func (r *replica) clearStaging() {
	r.tick, r.driven = nil, nil
	r.inbox = map[rkey][]xchMsg{}
}

func (r *replica) name() string { return r.dep.replicaNames[r.self] }

// reply answers request m with a, which echoes m's header.
func (r *replica) reply(m req, a rsp) {
	a.From, a.Committed = r.self, r.committed
	a.Tick, a.Att, a.Kind, a.Comp, a.Round = m.Tick, m.Att, m.Kind, m.Comp, m.Round
	r.dep.net.Send(r.name(), r.coordFrom, a)
}

func (r *replica) handle(now simnet.Time, msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case req:
		r.handleReq(msg.From, m)
	case xchMsg: // a peer's round batch, accepted at the round's barrier
		if !r.stale(m.Epoch, m.Tick, m.Att) {
			k := rkey{m.Comp, m.Round}
			r.inbox[k] = append(r.inbox[k], m)
			r.maybeAccept(k)
		}
	}
}

func (r *replica) handleReq(from string, m req) {
	switch m.Kind {
	case stPrepare, stFailed: // stFailed rolls the attempt back for good
		// Epoch fence: a prepare from a deposed leader must not reset
		// staging a newer leader set up. Prepare and commit are the only
		// requests allowed to raise the epoch — both are safe entry points
		// for a newly elected leader.
		if m.Epoch < r.curEpoch {
			r.dep.metrics.fencedReqs++
			return
		}
		r.curEpoch = m.Epoch
		r.coordFrom = from
		if m.Tick <= r.committed {
			// Already folded in; answer honestly so a finalizing leader's
			// collect sees Committed.
			r.reply(m, rsp{})
			return
		}
		if r.tick != nil {
			r.tick.Abort() // the current attempt's changes, newest first
		}
		r.clearStaging()
		r.curTick, r.curAtt = m.Tick, m.Att
		var a rsp
		if m.Kind == stFailed {
			// No attempt is current: requests and batches of the failed one
			// still in flight are stale, and a stray commit cannot seal it.
			r.curTick = 0
		} else if a.Err = r.applyOps(m.Ops); a.Err == nil {
			a.NextComp, a.HasDel = r.tick.Next(0)
		}
		r.reply(m, a)
	case stCommit:
		if m.Epoch < r.curEpoch {
			r.dep.metrics.fencedCommits++
			return
		}
		r.curEpoch = m.Epoch
		r.coordFrom = from
		// Attempt fencing on commit: the commit decree names the exact
		// attempt every replica fully staged; anything else (a stale
		// leader's retry racing a restarted attempt) must not seal partial
		// staging.
		if r.committed < m.Tick && r.curTick == m.Tick && r.curAtt == m.Att {
			r.committed = m.Tick
			r.clearStaging()
		}
		r.reply(m, rsp{})
	case stRound:
		if !r.stale(m.Epoch, m.Tick, m.Att) {
			r.runRound(m)
		}
	}
}

// applyOps applies this replica's routed base ops (insert-if-absent,
// delete-if-present; Submit validated them) and begins the tick's
// maintenance from the realized ones.
func (r *replica) applyOps(ops []datalog.DeltaOp) error {
	d := datalog.NewDelta() // its ops are what the tick's Abort replays backwards
	for _, op := range ops {
		rel := r.db.Get(op.Pred)
		if op.Del {
			if rel.Delete(op.T) {
				d.Delete(op.Pred, op.T)
			}
		} else if rel.Insert(op.T) {
			d.Insert(op.Pred, op.T)
		}
	}
	var err error
	if r.tick, err = r.inc.Begin(d, r.site); err != nil {
		r.db.Undo(d.Ops())
	}
	return err
}

// runRound drives one exchange round of the component (starting it on
// round 0) and ships what it emits: to the owner for a sharded head, to
// every replica for a mirrored head or an over-deleted candidate. Every
// peer gets exactly one batch, empty or not, and the local batch is
// stashed in the inbox, so accept-time ordering treats self like any peer.
func (r *replica) runRound(m req) {
	if m.Round == 0 {
		r.tick.Start(m.Comp, m.HasDel)
	}
	out, cands := make([]datalog.Batch, r.dep.place.N), datalog.Batch{}
	last, err := r.tick.Round(m.Quiet, out, &cands)
	if err != nil {
		r.reply(m, rsp{Err: err})
		return
	}
	k := rkey{m.Comp, m.Round}
	for d, b := range out {
		r.dep.metrics.rows += uint64(b.Len() + cands.Len())
		x := xchMsg{Tick: m.Tick, Att: m.Att, Epoch: r.curEpoch, Comp: m.Comp, Round: m.Round, From: r.self, Rows: b, Cands: cands}
		if d == r.self {
			r.inbox[k] = append(r.inbox[k], x)
		} else {
			r.dep.net.Send(r.name(), r.dep.replicaNames[d], x)
		}
	}
	r.driven, r.last = &m, last
	r.maybeAccept(k)
}

// stale reports whether mid-attempt traffic is not for the current
// attempt: an older or newer epoch (only prepare and commit change it), or
// an attempt that is not staging.
func (r *replica) stale(epoch, tick, att uint64) bool {
	if epoch < r.curEpoch {
		r.dep.metrics.fencedReqs++
	}
	return epoch != r.curEpoch || tick != r.curTick || att != r.curAtt || r.committed >= tick
}

// maybeAccept closes the exchange barrier of the round driven here once
// its N batches are in: they are accepted in sender order (not arrival
// order), and the coordinator learns how many accepted rows the next round
// drives and which component comes next should this round end its own.
func (r *replica) maybeAccept(k rkey) {
	if r.driven == nil || (rkey{r.driven.Comp, r.driven.Round}) != k || len(r.inbox[k]) < r.dep.place.N {
		return
	}
	m := *r.driven
	r.driven = nil
	batches := r.inbox[k]
	delete(r.inbox, k)
	sort.Slice(batches, func(i, j int) bool { return batches[i].From < batches[j].From })
	next := 0
	for _, x := range batches {
		next = r.tick.Accept(&x.Cands, &x.Rows)
	}
	nc, del := r.tick.Next(m.Comp + 1)
	r.reply(m, rsp{Last: r.last, Next: next, NextComp: nc, HasDel: del})
}
