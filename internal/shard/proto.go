package shard

import (
	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// Wire protocol. The elected coordinator leader sequences BSP ticks over N
// replicas:
//
//	prepare → per component: compBegin → round* → … → decide → commit
//
// Prepare resets a replica's staging and carries its routed ops, which it
// applies before it begins the tick. A round is one round of the
// component's datalog.Tick on every replica, and an all-to-all exchange:
// each replica sends every peer exactly one xch batch per round, empty
// ones included, and answers the round request itself once it holds N
// batches (its own and one from each peer), accepted in sender order. The
// component ends after a round that leaves nothing to drive anywhere, once
// its replicas report their last phase.
//
// A request's Kind is the coordinator stage it runs (stFailed: roll the
// attempt back and fence it until the next prepare), and a response echoes
// its request's header. Every request and response carries (Tick, Att); a
// replica drops anything that is not its current attempt, and the
// coordinator drops stale acks — so a timed-out attempt can be restarted
// wholesale under a fresh Att without fencing individual messages. An
// attempt ID is epoch<<32 | n, n counted by the leader that starts it
// (DESIGN.md §13): each epoch has one leader, so a (Tick, Att) pair is
// never reused across leaders, and IDs grow with the epoch. Requests also
// carry the leader's Epoch: replicas remember the highest epoch seen and
// drop anything older, so a deposed leader's stale broadcasts are fenced
// even when they race a new leader's traffic. Commit and stFailed are the
// only stages retried in place: commit is broadcast only after the commit
// decree is on the quorum log (every replica has fully staged the attempt
// by then), and a rollback leaves nothing staged, so resending either
// until all ack is idempotent. Any other stall restarts the attempt.

type req struct {
	Tick, Att   uint64
	Epoch       uint64 // leadership epoch of the sending coordinator
	Kind        stage
	Comp, Round int
	Ops         []datalog.DeltaOp // stPrepare: this replica's routed slice
	HasDel      bool              // stRound 0: the tick deletes from the component's inputs somewhere
	Quiet       bool              // stRound: the previous round left nothing to drive anywhere
}

type rsp struct {
	From           int
	Tick, Att      uint64
	Kind           stage
	Comp, Round    int
	HasAdd, HasDel bool   // stCompBegin: local input changes
	Last           bool   // stRound: a quiet round ends the component
	Next           int    // stRound: accepted rows the next round drives
	Err            error  // the component's evaluation failed: the tick cannot commit
	Committed      uint64 // last committed tick
}

// xchMsg carries one round's emissions, possibly none, from one replica to
// one peer. (Tick, Att) alone fences stale batches — attempts are globally
// unique — but Epoch rides along as defense in depth and for fence
// accounting.
type xchMsg struct {
	Tick, Att   uint64
	Epoch       uint64
	Comp, Round int
	From        int
	Items       []datalog.Change
}

// rkey identifies one exchange barrier of the current attempt.
type rkey struct{ comp, round int }

// watchdogMsg is a coord's stall timer, set to fire at at; it acts only
// while drv is still the coordinator's coord (coordNode.drv) and this is
// its pending timer.
type watchdogMsg struct {
	drv *coord
	at  simnet.Time
}

// hbMsg is a coordinator-to-coordinator heartbeat: the sender's view of
// the leadership epoch and how many control-log slots it has applied.
// Receivers use it both as a liveness signal (standbys reset their
// election timer on heartbeats from the current leader) and as a
// staleness probe (either side requests a log catch-up when the other is
// ahead).
type hbMsg struct {
	Epoch   uint64
	Applied int
	From    int // coordinator index
}

// ctlTimerMsg drives a coordinator's periodic duties: leaders send
// heartbeats and nudge the next tick; standbys check the election timeout.
type ctlTimerMsg struct{ Seq uint64 }

// recoverKickMsg re-arms a recovered coordinator: simnet discards timers
// on down nodes, so without a kick a recovered coordinator would be inert.
type recoverKickMsg struct{}
