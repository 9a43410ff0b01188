package shard

import (
	"slices"
	"sort"

	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// replica is one shard server: it owns one hash-shard of every sharded
// relation (plus a full copy of every mirrored one) and maintains them with
// the single-node engine, a datalog.Tick, stepped one exchange round at a
// time: what a round emits goes to the replica owning it, and every replica
// closes a round itself once it holds N batches, accepts them in sender
// order and picks the next round from them as every replica does. The
// tick's Abort is the undo log: a restarted attempt rolls the staged one
// back, so redelivered or retried protocol traffic can never double-apply.
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
	tick     *datalog.Tick     // nil until the attempt's ops are applied
	inbox    map[rkey][]xchMsg // round batches, this replica's own included; a later attempt's wait for its prepare
	cur      rkey              // the round this replica sent its batch for last
	stepping bool              // the attempt's staged ack is not sent yet
	last     bool              // cur's component is in its last phase

	noteAt simnet.Time // when the pending note timer fires; 0 if none
	closed bool        // a round closed here since the prepare or the last note
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
	r := &replica{dep: dep, self: self, db: db, inc: inc, coordFrom: dep.coordNames[0], inbox: map[rkey][]xchMsg{}}
	r.site.Self, r.site.Local = self, dep.place.Local
	r.site.Whole = func(pred string) bool { return dep.place.N == 1 || dep.place.Specs[pred].Mirrored }
	r.site.Owner = func(pred string, w []uint64, vals []any) int {
		if s := dep.place.Specs[pred]; !s.Mirrored {
			return shardOfRow(w, vals, s.Col, dep.place.N)
		}
		return -1
	}
	return r, nil
}

func (r *replica) name() string { return r.dep.replicaNames[r.self] }

// reply answers request m with a, which echoes m's header.
func (r *replica) reply(m req, a rsp) {
	a.From, a.Committed = r.self, r.committed
	a.Tick, a.Att, a.Kind = m.Tick, m.Att, m.Kind
	r.dep.net.Send(r.name(), r.coordFrom, a)
}

// answer ends the attempt here with its prepare's answer: the staged ack,
// or the evaluation failure err.
func (r *replica) answer(err error) {
	r.stepping = false
	r.reply(req{Tick: r.curTick, Att: r.curAtt, Kind: stPrepare}, rsp{Err: err})
}

func (r *replica) handle(now simnet.Time, msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case req:
		r.handleReq(msg.From, m)
	case xchMsg: // a peer's round batch, accepted at the round's barrier
		if m.Epoch < r.curEpoch {
			r.dep.metrics.fencedReqs++
		} else if m.Att >= r.curAtt && m.Tick > r.committed {
			k := rkey{m.Att, m.Comp, m.Round}
			r.inbox[k] = append(r.inbox[k], m)
			r.advance()
		}
	case noteMsg: // the note timer
		if r.stepping {
			if r.closed {
				r.dep.net.Send(r.name(), r.coordFrom, noteMsg{Tick: r.curTick, Att: r.curAtt})
			}
			r.closed = false
			r.armNote()
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
		if m.Kind == stPrepare && m.Att <= r.curAtt {
			return // a rollback overtook it: a replica can fail the attempt before every prepare lands
		}
		if r.tick != nil {
			r.tick.Abort() // the current attempt's changes, newest first
		}
		r.tick, r.stepping, r.curTick, r.curAtt = nil, false, m.Tick, m.Att
		for k := range r.inbox {
			if k.att != m.Att || m.Kind == stFailed {
				delete(r.inbox, k)
			}
		}
		if m.Kind == stFailed {
			// No attempt is current: requests and batches of the failed one
			// still in flight are stale, and a stray commit cannot seal it.
			r.curTick = 0
			r.reply(m, rsp{})
			return
		}
		whole, err := r.applyOps(m.Ops)
		if err != nil {
			r.reply(m, rsp{Err: err})
			return
		}
		r.stepping, r.closed = true, false
		r.armNote()
		// Every replica picks the same first component without a round when
		// each realized the same base changes, or when none exchanges.
		if next, del := r.tick.Next(0); whole || !slices.Contains(r.dep.place.Local, false) {
			r.begin(next, del)
		} else {
			r.step(rkey{m.Att, -1, 0}, false, false)
		}
		r.advance()
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
			r.committed, r.tick = m.Tick, nil // the staged changes are the committed state
		}
		r.reply(m, rsp{})
	}
}

// applyOps applies the tick's base ops this replica holds, a mirrored
// pred's and a sharded one's it owns (insert-if-absent, delete-if-present;
// Submit validated them), and begins the tick's maintenance from the
// realized ones. It reports whether every replica applies every op, and
// so realizes the same changes.
func (r *replica) applyOps(ops []datalog.DeltaOp) (whole bool, err error) {
	d := datalog.NewDelta() // its ops are what the tick's Abort replays backwards
	whole = true
	for _, op := range ops {
		if s := r.dep.place.Specs[op.Pred]; !s.Mirrored && r.dep.place.N > 1 {
			if whole = false; shardOf(op.T, s.Col, r.dep.place.N) != r.self {
				continue
			}
		}
		rel := r.db.Get(op.Pred)
		if op.Del {
			if rel.Delete(op.T) {
				d.Delete(op.Pred, op.T)
			}
		} else if rel.Insert(op.T) {
			d.Insert(op.Pred, op.T)
		}
	}
	if r.tick, err = r.inc.Begin(d, r.site); err != nil {
		r.db.Undo(d.Ops())
	}
	return whole, err
}

// armNote sets the replica's note timer, unless one is pending; a timer
// that fires beside a newer one sends at most a note more.
func (r *replica) armNote() {
	if now := r.dep.net.Now(); r.noteAt <= now {
		r.noteAt = now + DefaultRetryAfter/4
		r.dep.net.After(r.name(), DefaultRetryAfter/4, noteMsg{})
	}
}

// begin runs this replica's local components below c that the tick
// touches, then round 0 of component c, deleting from its inputs if del,
// or, past the last component, sends the staged ack.
func (r *replica) begin(c int, del bool) {
	if err := r.tick.Local(c); err != nil {
		r.answer(err)
	} else if c < r.dep.comps {
		r.step(rkey{r.curAtt, c, 0}, false, del)
	} else {
		r.answer(nil)
	}
}

// step runs round k of the tick (round 0 starts the component; k.comp −1
// only names the first one) and sends every replica one batch, its own to
// the inbox: the signed rows that replica owns (a mirrored head's go to
// every replica, and a row every replica derives alike only to itself),
// every DRed candidate, the rows shipped and what Tick.Next reports after
// the round. quiet says the previous round shipped
// no signed row anywhere.
func (r *replica) step(k rkey, quiet, del bool) {
	out, cands := make([]datalog.Batch, r.dep.place.N), datalog.Batch{}
	if k.comp >= 0 {
		if k.round == 0 {
			r.tick.Start(k.comp, del)
		}
		if h := r.dep.roundHook; h != nil {
			h(r.self, r.curTick, k, del)
		}
		var err error
		if r.last, err = r.tick.Round(quiet, out, &cands); err != nil {
			r.answer(err)
			return
		}
	}
	x := xchMsg{Tick: r.curTick, Att: r.curAtt, Epoch: r.curEpoch, Comp: k.comp, Round: k.round, From: r.self, Cands: cands}
	x.Next, x.HasDel = r.tick.Next(k.comp + 1)
	for _, b := range out {
		x.Shipped += b.Len()
	}
	r.cur = k
	for d, b := range out {
		r.dep.metrics.rows += uint64(b.Len() + cands.Len())
		if x.Rows = b; d == r.self {
			r.inbox[k] = append(r.inbox[k], x)
		} else {
			r.dep.net.Send(r.name(), r.dep.replicaNames[d], x)
		}
	}
}

// advance closes this replica's current round while its N batches are in,
// accepting them in sender order, and takes the next step they pick, the
// same on every replica: another round of the component while a replica
// shipped a signed row or its phase is not the last, else round 0 of the
// smallest component a batch names, else the staged ack.
func (r *replica) advance() {
	for r.stepping && len(r.inbox[r.cur]) >= r.dep.place.N {
		k, batches := r.cur, r.inbox[r.cur]
		delete(r.inbox, k)
		sort.Slice(batches, func(i, j int) bool { return batches[i].From < batches[j].From })
		shipped, next, del := 0, r.dep.comps, false
		for _, x := range batches {
			if k.comp >= 0 {
				r.tick.Accept(&x.Cands, &x.Rows)
			}
			shipped += x.Shipped
			if x.Next < next {
				next, del = x.Next, false
			}
			del = del || x.Next == next && x.HasDel
		}
		r.closed = true
		if k.comp >= 0 && r.self == 0 {
			r.dep.metrics.rounds++
		}
		if k.comp >= 0 && (shipped > 0 || !r.last) {
			r.step(rkey{k.att, k.comp, k.round + 1}, shipped == 0, false)
		} else {
			r.begin(next, del)
		}
	}
}
