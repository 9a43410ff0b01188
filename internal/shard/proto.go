package shard

import (
	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// Wire protocol. The elected coordinator leader runs two-phase commit of
// ticks over N replicas, which step each tick's rounds among themselves:
//
//	prepare → replicas: [round of no component] (round of a touched component)* → staged ack → decide → commit
//
// Prepare rolls back a replica's staging and carries the tick's base ops;
// it applies those it holds. A round is an all-to-all exchange, closed by
// each replica once it holds N batches (its own and one from each peer),
// accepted in sender order. Each batch carries how many signed rows its
// sender shipped and the sender's datalog.Tick.Next for the components
// after the round's own, so every replica picks the same next round: the
// component's next while a replica shipped a signed row or its phase is not
// the last (quiet when none shipped), else round 0 of the smallest
// component a batch names, deleting if a batch naming it deletes, else the
// staged ack. A first round of no component carries Next(0), unless every
// op is on a mirrored relation and every replica realizes the same changes,
// or no component exchanges. Next names no local component: a replica runs
// those its tick touches alone before the next component it starts, or
// before its staged ack. A row that every replica derives alike crosses no
// link: its owner keeps it.
//
// A request's Kind is the coordinator stage it runs (stFailed: roll the
// attempt back and fence it until the next prepare), and a response echoes
// its request's header. Everything carries (Tick, Att): a replica drops an
// older attempt's traffic and keeps a later attempt's batches for its
// prepare, and the coordinator drops stale acks, so a stalled attempt is
// restarted wholesale under a fresh Att. An attempt ID is epoch<<32 | n, n
// counted by the leader that starts it (DESIGN.md §13), so a (Tick, Att)
// pair is never reused across leaders and IDs grow with the epoch.
// Replicas also drop traffic of an epoch older than the highest they have
// seen, so a deposed leader's broadcasts are fenced. Commit and stFailed
// are retried in place: commit follows the commit decree (every replica
// has staged the attempt), and a rollback leaves nothing staged, so both
// are idempotent. A replica whose rounds still close sends a noteMsg every
// DefaultRetryAfter/4, so a long tick is no stall.

type req struct {
	Tick, Att uint64
	Epoch     uint64 // leadership epoch of the sending coordinator
	Kind      stage
	Ops       []datalog.DeltaOp // stPrepare: the tick's base ops, of which a replica applies those it holds
}

type rsp struct {
	From      int
	Tick, Att uint64
	Kind      stage
	Err       error  // the component's evaluation failed: the tick cannot commit
	Committed uint64 // last committed tick
}

// xchMsg carries one round's emissions, possibly none, from one replica to
// one peer as word batches, its signed rows and DRed candidates, with what
// the next round is picked from. (Tick, Att) alone fences stale batches,
// but Epoch rides along as defense in depth and for fence accounting.
type xchMsg struct {
	Tick, Att   uint64
	Epoch       uint64
	Comp, Round int // Comp −1: the round after prepare, of no component
	From        int
	Rows, Cands datalog.Batch
	Shipped     int  // signed rows the sender shipped this round, a copy per replica sent to
	Next        int  // the first component after Comp the sender's tick touches (datalog.Tick.Next)
	HasDel      bool // the sender's tick deletes from Next's inputs
}

// noteMsg tells the coordinator that a replica is still closing rounds of
// attempt (Tick, Att): it re-arms the stall watchdog and nothing more. A
// replica's own note timer is a noteMsg it sends itself.
type noteMsg struct{ Tick, Att uint64 }

// rkey identifies one exchange barrier of an attempt.
type rkey struct {
	att         uint64
	comp, round int
}

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
