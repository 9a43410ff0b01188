package shard

import (
	"fmt"

	"hydro/internal/datalog"
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
	stOps
	stCompBegin
	stRound
	stApply
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
	seq     uint64 // progress counter; stale watchdogs are ignored
	stg     stage
	comp    int
	round   int
	hasDel  bool // the tick deletes from the component's inputs somewhere
	quiet   bool // the last round left nothing to drive anywhere
	last    bool // every replica's component is in its last phase
	tickOps []datalog.DeltaOp
	routed  [][]datalog.DeltaOp
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

func (c *coord) armWatchdog() {
	c.dep().net.After(c.name(), DefaultRetryAfter, watchdogMsg{Tick: c.t, Att: c.a, Seq: c.seq})
}

// progress marks forward motion of the current attempt and re-arms the
// stall detector from now.
func (c *coord) progress() {
	c.seq++
	c.armWatchdog()
}

// send tells every replica to run the current stage of the attempt: m,
// changed per replica by per when it is non-nil.
func (c *coord) send(m req, per func(i int, m *req)) {
	m.Tick, m.Att, m.Epoch, m.Kind, m.Comp, m.Round = c.t, c.a, c.epoch, c.stg, c.comp, c.round
	c.acks = map[int]rsp{}
	for i, node := range c.dep().replicaNames {
		mi := m
		if per != nil {
			per(i, &mi)
		}
		c.dep().net.Send(c.name(), node, mi)
	}
}

func (c *coord) watchdog(m watchdogMsg) {
	if m.Tick != c.t || m.Att != c.a || m.Seq != c.seq {
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
// with the epoch.
func (c *coord) startAttempt() {
	c.cn.attSeq++
	c.dep().metrics.attempts.Add(1)
	c.a = c.epoch<<32 | c.cn.attSeq
	// Route the tick's base ops once per attempt.
	c.routed = make([][]datalog.DeltaOp, c.dep().place.N)
	for _, op := range c.tickOps {
		route(c.dep().place, c.routed, op.Pred, op.T, op)
	}
	c.setStage(stPrepare)
	c.send(req{}, nil)
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
		c.seq++ // every replica rolled back: nothing left to retry
		return
	}
	c.progress()
	c.advance()
}

func (c *coord) advance() {
	n := c.dep().place.N
	switch c.stg {
	case stPrepare:
		c.setStage(stOps)
		c.send(req{}, func(i int, m *req) { m.Ops = c.routed[i] })
	case stOps:
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
		// Per-replica barrier size: how many peers shipped it traffic.
		expect := make([]int, n)
		emitted := 0
		c.last = true
		for s := 0; s < n; s++ {
			emitted += c.acks[s].Emitted
			c.last = c.last && c.acks[s].Last
			for d, sent := range c.acks[s].SentTo {
				if sent {
					expect[d]++
				}
			}
		}
		if emitted == 0 {
			c.nextRound(true) // nothing to accept anywhere
			return
		}
		c.setStage(stApply)
		c.send(req{}, func(i int, m *req) { m.Expect = expect[i] })
	case stApply:
		pending := 0
		for i := 0; i < n; i++ {
			pending += c.acks[i].Next
		}
		c.nextRound(pending == 0)
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

// nextRound follows a round whose rows are all accepted: once nothing is
// left to drive anywhere (quiet), a component in its last phase is done.
func (c *coord) nextRound(quiet bool) {
	if quiet && c.last {
		c.comp++
		c.beginComp()
		return
	}
	c.round++
	c.quiet = quiet
	c.startRound()
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
