package shard

import (
	"fmt"

	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// Coordinator stages, in tick order. stDecide sits between the last
// component and commit: the driver has collected every replica's final
// ack and is waiting for its commit decree to land on the quorum log.
// stFailed is terminal: a component's evaluation failed, so the tick can
// never commit and every replica rolls its attempt back.
type stage int

const (
	stIdle stage = iota
	stPrepare
	stCompBegin
	stRound
	stDecide
	stCommit
	stFailed
)

// coord is the volatile BSP driver the acting leader runs for one tick:
// broadcast a request, collect N acks, advance. It holds no durable truth —
// tick admission and commit decisions live on the replicated control log
// (ctl.go); everything here is reconstructed after failover by restarting
// the attempt from prepare. Failures are handled by whole-attempt retry: a
// watchdog fires if the attempt stalls (replica down, link partitioned) and
// restarts it in place under a fresh attempt ID of the driver's epoch, so
// a deposed leader's restarts are fenced at the replicas. Once every
// replica has finished the attempt the driver proposes the commit decree
// (stDecide) and starts no further attempt of the tick; when the decree
// applies, the commit broadcast is the only remaining step and is retried
// in place, idempotently.
type coord struct {
	cn *coordNode

	t, a    uint64
	epoch   uint64
	due     simnet.Time // when the stall watchdog trips; 0 once nothing is left to retry
	timerAt simnet.Time // when the pending watchdog timer fires; 0 if none
	stg     stage
	comp    int
	round   int
	hasDel  bool // the tick deletes from the component's inputs somewhere
	quiet   bool // the last round left nothing to drive anywhere
	tickOps []datalog.DeltaOp
	acks    map[int]rsp
}

func (c *coord) dep() *Deployment { return c.cn.dep }

func (c *coord) name() string { return c.cn.name() }

// setStage advances the stage machine and fires the deployment's stage
// hook — the chaos suite's injection point for killing or partitioning
// the leader at an exact protocol position.
func (c *coord) setStage(s stage) {
	c.stg = s
	if h := c.dep().stageHook; h != nil {
		h(c.name(), c.t, c.a, int(s))
	}
}

// armWatchdog sets this coord's one watchdog timer; a timer set before it
// is ignored if it still fires.
func (c *coord) armWatchdog(after simnet.Time) {
	c.timerAt = c.dep().net.Now() + after
	c.dep().net.After(c.name(), after, watchdogMsg{drv: c, at: c.timerAt})
}

// progress marks forward motion of the current attempt: the watchdog trips
// DefaultRetryAfter from now. One timer is pending per coord, re-armed for
// the rest of the period when it fires early, so superseded timers do not
// pile up in the event queue a stage at a time.
func (c *coord) progress() {
	c.due = c.dep().net.Now() + DefaultRetryAfter
	if c.timerAt == 0 {
		c.armWatchdog(DefaultRetryAfter)
	}
}

// send tells every replica to run the current stage of the attempt: m,
// changed per replica by per when it is non-nil.
func (c *coord) send(m req, per func(i int, m *req)) {
	m.Tick, m.Att, m.Epoch, m.Kind, m.Comp, m.Round = c.t, c.a, c.epoch, c.stg, c.comp, c.round
	if c.acks == nil {
		c.acks = make(map[int]rsp, c.dep().place.N)
	}
	clear(c.acks)
	for i, node := range c.dep().replicaNames {
		mi := m
		if per != nil {
			per(i, &mi)
		}
		c.dep().net.Send(c.name(), node, mi)
	}
}

func (c *coord) watchdog(m watchdogMsg) {
	if m.at != c.timerAt {
		return
	}
	c.timerAt = 0
	if c.due == 0 {
		return
	}
	if wait := c.due - c.dep().net.Now(); wait > 0 {
		c.armWatchdog(wait)
		return
	}
	switch c.stg {
	case stCommit, stFailed:
		// The attempt's outcome is settled (commit decreed, or evaluation
		// failed); just re-push its broadcast until every replica acked.
		c.send(req{}, nil)
		c.progress()
	case stDecide:
		// Waiting on the quorum log; the consensus layer retries the decree
		// itself, and a second attempt could be sealed by this one's commit
		// decree, so just keep the watchdog alive.
		c.progress()
	default:
		// Genuinely stalled attempt: restart it in place. The prepare of
		// the fresh attempt ID resets every replica it reaches.
		c.startAttempt()
	}
}

// startAttempt (re)starts the tick from prepare under a fresh attempt ID:
// the epoch in the high half, the leader's attempt count in the low half.
// Each epoch has one leader, so IDs never repeat across leaders and grow
// with the epoch. Each replica's prepare carries its routed slice of the
// tick's base ops.
func (c *coord) startAttempt() {
	c.cn.attSeq++
	c.dep().metrics.attempts.Add(1)
	c.a = c.epoch<<32 | c.cn.attSeq
	routed := make([][]datalog.DeltaOp, c.dep().place.N)
	for _, op := range c.tickOps {
		route(c.dep().place, routed, op.Pred, op.T, op)
	}
	c.setStage(stPrepare)
	c.send(req{}, func(i int, m *req) { m.Ops = routed[i] })
	c.progress()
}

func (c *coord) collect(m rsp) {
	if m.Tick != c.t || m.Att != c.a || m.Kind != c.stg || m.Comp != c.comp || m.Round != c.round {
		return
	}
	if m.Err != nil && c.stg != stFailed {
		c.fail(m.Err)
		return
	}
	c.acks[m.From] = m
	if len(c.acks) < c.dep().place.N {
		return
	}
	if c.stg == stFailed {
		c.due = 0 // every replica rolled back: nothing left to retry
		return
	}
	c.progress()
	c.advance()
}

func (c *coord) advance() {
	n := c.dep().place.N
	switch c.stg {
	case stPrepare:
		c.comp = 0
		c.beginComp()
	case stCompBegin:
		var hasAdd bool
		c.hasDel = false
		for i := 0; i < n; i++ {
			hasAdd = hasAdd || c.acks[i].HasAdd
			c.hasDel = c.hasDel || c.acks[i].HasDel
		}
		if !hasAdd && !c.hasDel {
			c.comp++
			c.beginComp()
			return
		}
		c.quiet = false
		c.startRound()
	case stRound:
		// Every replica has accepted the round's batches: once nothing is
		// left to drive anywhere, a component in its last phase is done.
		last, pending := true, 0
		for i := 0; i < n; i++ {
			last = last && c.acks[i].Last
			pending += c.acks[i].Next
		}
		if pending == 0 && last {
			c.comp++
			c.beginComp()
			return
		}
		c.round++
		c.quiet = pending == 0
		c.startRound()
	case stCommit:
		allIn := true
		for i := 0; i < n; i++ {
			if c.acks[i].Committed < c.t {
				allIn = false
			}
		}
		if !allIn {
			return // commit retry will re-collect
		}
		c.cn.drv = nil
		c.cn.maybeStartNext()
	}
}

// fail stops the deployment at this tick: a component's evaluation failed,
// and would fail the same way on every retry, so every replica rolls the
// attempt back and nothing more is driven — the driver stays installed,
// so no later tick starts.
func (c *coord) fail(err error) {
	if c.dep().err == nil {
		c.dep().err = fmt.Errorf("shard: tick %d: %w", c.t, err)
	}
	c.setStage(stFailed)
	c.send(req{}, nil)
	c.progress()
}

func (c *coord) beginComp() {
	if c.comp >= c.dep().comps {
		// Every replica holds the fully staged attempt; seal the tick on
		// the quorum log before telling anyone to commit, so a failover in
		// the gap finalizes instead of re-driving.
		c.setStage(stDecide)
		c.cn.cons.Propose(decreeCommit{Tick: c.t, Att: c.a, Epoch: c.epoch})
		c.progress()
		return
	}
	c.round = 0
	c.setStage(stCompBegin)
	c.send(req{}, nil)
}

// enterCommit broadcasts the decreed commit (called when the commit decree
// applies, or by a recovered leader finalizing the last sealed tick).
func (c *coord) enterCommit() {
	c.setStage(stCommit)
	c.send(req{}, nil)
	c.progress()
}

func (c *coord) startRound() {
	c.setStage(stRound)
	c.send(req{HasDel: c.hasDel, Quiet: c.quiet}, nil)
}
