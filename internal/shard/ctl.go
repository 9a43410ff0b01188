package shard

import (
	"hydro/internal/consensus"
	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// The replicated control plane (DESIGN.md §13). Coordinator state
// transitions are decrees on a quorum-replicated Paxos log shared by all
// coordinator nodes; every coordinator applies the same decree sequence
// through ctlState.apply, so they agree on the epoch, the current leader,
// the committed-tick frontier, and the submitted-tick queue. Only the
// leader of the current epoch drives the volatile BSP state machine
// (coord.go), and it starts and restarts attempts itself: an attempt ID
// carries the epoch (startAttempt), so it is unique across leaders, and the
// replicas' epoch fence and exact-(tick, att) commit check order attempts
// without a decree. Everything the driver needs beyond the log is
// reconstructed by restarting the in-flight attempt from prepare, which is
// exactly what a standby does after winning an election.

// decreeSubmit appends one tick of base ops to the replicated queue. Seq
// is the submission index; duplicates (the deployment proposes through
// every coordinator so a single crash cannot lose a tick) collapse because
// only Seq == len(queue) applies.
type decreeSubmit struct {
	Seq uint64
	Ops []datalog.DeltaOp
}

// decreeElect installs Leader for Epoch. Proposed by a standby whose
// election timer expired; only epoch+1 applies, so concurrent candidates
// for the same succession race to one winner and the losers become stale.
type decreeElect struct {
	Epoch  uint64
	Leader int
}

// decreeCommit seals tick Tick with attempt Att. The leader proposes it
// only after every replica acked the attempt's final stage, so by the time
// it is on the log all N replicas hold the fully staged attempt — a new
// leader that finds a decreed-but-unbroadcast commit finalizes it instead
// of re-driving the tick. It applies on Epoch and Tick alone: a leader
// proposes at most one commit per tick in its epoch, because it never
// starts another attempt of a tick once it has proposed the tick's commit.
type decreeCommit struct {
	Tick, Att, Epoch uint64
}

// apply outcomes.
const (
	applyStale = iota
	applySubmitted
	applyElected
	applyCommitted
)

// ctlState is the replicated coordinator state machine: a pure function
// of the decree log prefix, so every coordinator that applied the same
// slots holds an identical copy (the election-determinism tests pin
// this). All counters are part of the state and therefore replicated and
// deterministic.
type ctlState struct {
	epoch         uint64 // current leadership epoch (starts at 1)
	leader        int    // coordinator index holding epoch's lease
	committed     uint64 // ticks sealed by commit decrees
	lastCommitAtt uint64 // attempt that sealed tick `committed`
	queue         [][]datalog.DeltaOp

	submits, commits, elections uint64
	stale                       uint64 // decrees rejected by the guards
	doubleCommits               uint64 // commit decrees for an already-sealed tick (must stay 0)
}

func newCtlState() ctlState { return ctlState{epoch: 1} }

func (s *ctlState) apply(v any) int {
	switch d := v.(type) {
	case decreeSubmit:
		if d.Seq != uint64(len(s.queue)) {
			s.stale++
			return applyStale
		}
		s.queue = append(s.queue, d.Ops)
		s.submits++
		return applySubmitted
	case decreeElect:
		if d.Epoch != s.epoch+1 {
			s.stale++
			return applyStale
		}
		s.epoch = d.Epoch
		s.leader = d.Leader
		s.elections++
		return applyElected
	case decreeCommit:
		if d.Epoch == s.epoch && d.Tick <= s.committed {
			// A second commit of a sealed tick under the live epoch would be
			// a real double commit; it is counted (never silently absorbed)
			// and the chaos suite asserts the counter stays zero.
			s.doubleCommits++
			return applyStale
		}
		if d.Epoch != s.epoch || d.Tick != s.committed+1 {
			s.stale++
			return applyStale
		}
		s.committed = d.Tick
		s.lastCommitAtt = d.Att
		s.commits++
		return applyCommitted
	}
	s.stale++
	return applyStale
}

// Control-plane timing, in multiples of DefaultRetryAfter: the
// leader heartbeats faster than standbys give up on it, and election
// timeouts carry a per-index spread so candidates rarely duel.
const (
	hbEveryNum      = 3 // heartbeat period = DefaultRetryAfter * 3/4
	hbEveryDen      = 4
	electAfterMult  = 3 // election timeout = DefaultRetryAfter * 3 (+ spread)
	electSpreadDen  = 4 // per-index spread = idx * DefaultRetryAfter / 4
	recoverLagGrace = 1 // a recovered node waits one full timeout before electing
)

// coordNode is one replicated coordinator: a Paxos participant plus the
// decree application logic, heartbeat/election duties, and — when it is
// the leader of the current epoch — the volatile BSP driver.
type coordNode struct {
	dep  *Deployment
	idx  int
	cons *consensus.Node
	st   ctlState
	drv  *coord // non-nil only on the acting leader, while driving

	attSeq           uint64 // attempts this node started: the low half of an attempt ID
	lastHB           simnet.Time
	timerSeq         uint64
	electProposedFor uint64 // highest epoch we already proposed an election for
}

func (cn *coordNode) name() string { return cn.dep.coordNames[cn.idx] }

func (cn *coordNode) isLeader() bool { return cn.st.leader == cn.idx }

func (cn *coordNode) hbEvery() simnet.Time {
	return DefaultRetryAfter * hbEveryNum / hbEveryDen
}

func (cn *coordNode) electAfter() simnet.Time {
	return DefaultRetryAfter*electAfterMult + simnet.Time(cn.idx)*DefaultRetryAfter/electSpreadDen
}

func (cn *coordNode) armTimer() {
	cn.timerSeq++
	cn.dep.net.After(cn.name(), cn.hbEvery(), ctlTimerMsg{Seq: cn.timerSeq})
}

func (cn *coordNode) handle(now simnet.Time, msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case ctlTimerMsg:
		if m.Seq != cn.timerSeq {
			return
		}
		cn.tickTimer(now)
	case hbMsg:
		cn.onHB(now, m, msg.From)
	case recoverKickMsg:
		cn.onRecover(now)
	case watchdogMsg:
		if cn.drv != nil {
			cn.drv.watchdog(m)
		}
	case rsp:
		if cn.drv != nil {
			cn.drv.collect(m)
		}
	default:
		if consensus.IsMessage(msg.Payload) {
			cn.cons.Handle(now, msg)
		}
	}
}

// tickTimer runs the periodic duties and always re-arms.
func (cn *coordNode) tickTimer(now simnet.Time) {
	cn.armTimer()
	if cn.isLeader() {
		for i, peer := range cn.dep.coordNames {
			if i == cn.idx {
				continue
			}
			cn.dep.metrics.heartbeats.Add(1)
			cn.dep.net.Send(cn.name(), peer, hbMsg{Epoch: cn.st.epoch, Applied: cn.cons.Applied(), From: cn.idx})
		}
		// Belt and braces: re-drive queued work if no transition did.
		cn.maybeStartNext()
		return
	}
	if now-cn.lastHB > cn.electAfter() && cn.electProposedFor <= cn.st.epoch {
		// The leader has been silent past the timeout: run for epoch+1.
		// Propose once per target epoch — Paxos itself retries the decree —
		// and re-run only if a later election moves the epoch past ours.
		cn.electProposedFor = cn.st.epoch + 1
		cn.cons.Propose(decreeElect{Epoch: cn.st.epoch + 1, Leader: cn.idx})
	}
}

func (cn *coordNode) onHB(now simnet.Time, m hbMsg, from string) {
	if m.Epoch > cn.st.epoch || (m.Epoch == cn.st.epoch && m.Applied > cn.cons.Applied()) {
		cn.cons.RequestLearn(from)
	}
	if m.Epoch == cn.st.epoch && m.From == cn.st.leader {
		cn.lastHB = now
	}
	if m.Epoch < cn.st.epoch {
		// The sender believes a deposed epoch; answer so it learns ours.
		cn.dep.net.Send(cn.name(), from, hbMsg{Epoch: cn.st.epoch, Applied: cn.cons.Applied(), From: cn.idx})
	}
}

// onRecover re-arms a coordinator whose timers simnet discarded while it
// was down, and pulls the decree log forward before doing anything
// leader-like: the node's own view may be epochs behind. A driver waiting
// in stDecide is kept: its commit decree may still land, and a second
// attempt of the tick in the same epoch could then be sealed by the first
// one's decree.
func (cn *coordNode) onRecover(now simnet.Time) {
	if cn.drv != nil && cn.drv.stg != stDecide {
		cn.drv = nil
	}
	cn.electProposedFor = 0
	cn.lastHB = now + DefaultRetryAfter*recoverLagGrace
	cn.armTimer()
	for i, peer := range cn.dep.coordNames {
		if i != cn.idx {
			cn.cons.RequestLearn(peer)
		}
	}
	if cn.isLeader() {
		// Still the leader as far as the log we hold says: resume. If a
		// newer epoch exists, the catch-up above deposes us when it lands,
		// and until then every broadcast we make is epoch-fenced at the
		// replicas and every decree we propose is epoch-guarded at apply.
		cn.recoverDrive()
	}
}

// applyDecree is the OnDecide hook: advance the replicated state machine,
// then react to transitions that concern this node's role.
func (cn *coordNode) applyDecree(v any) {
	switch cn.st.apply(v) {
	case applySubmitted:
		cn.maybeStartNext()
	case applyElected:
		cn.dep.metrics.noteLeaderChange(cn.dep.net.Now(), cn.st.epoch)
		// Whatever was being driven belongs to a dead epoch now.
		cn.drv = nil
		cn.lastHB = cn.dep.net.Now()
		if cn.isLeader() {
			cn.recoverDrive()
		}
	case applyCommitted:
		if cn.drv != nil && cn.drv.stg == stDecide && cn.drv.t == cn.st.committed {
			cn.drv.enterCommit()
		} else if cn.isLeader() && cn.drv == nil {
			// Failover landed between decree and broadcast: finalize.
			cn.finalizeCommit()
		}
	}
}

// recoverDrive brings a (re)elected or restarted leader back to a safe
// driving position using only replicated state: first make sure the last
// decreed commit actually reached the data replicas, then start the next
// attempt if work remains.
func (cn *coordNode) recoverDrive() {
	if cn.st.committed > 0 {
		cn.finalizeCommit()
		return
	}
	cn.maybeStartNext()
}

// maybeStartNext drives the next queued tick when this node is the idle
// leader: tick st.committed+1 under a fresh attempt of epoch st.epoch. A
// deposed leader that does not know it yet is fenced at the replicas, and
// its commit decree at the epoch guard.
func (cn *coordNode) maybeStartNext() {
	if !cn.isLeader() || cn.drv != nil {
		return
	}
	if uint64(len(cn.st.queue)) <= cn.st.committed {
		return
	}
	cn.drv = &coord{
		cn:      cn,
		t:       cn.st.committed + 1,
		epoch:   cn.st.epoch,
		tickOps: cn.st.queue[cn.st.committed],
	}
	cn.drv.startAttempt()
}

// finalizeCommit pushes the already-decreed commit of tick st.committed to
// the data replicas. Safe from any leader of the current epoch: the commit
// decree proves all N replicas hold the fully staged attempt (or have
// already committed it), so the broadcast is idempotent.
func (cn *coordNode) finalizeCommit() {
	if cn.drv != nil {
		return
	}
	cn.drv = &coord{
		cn:    cn,
		t:     cn.st.committed,
		a:     cn.st.lastCommitAtt,
		epoch: cn.st.epoch,
	}
	cn.drv.enterCommit()
}
