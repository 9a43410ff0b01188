package shard

import "fmt"

// Test-only exports: the chaos suites inject faults at exact protocol
// positions via the stage hook and read internal control-plane state.

// Coordinator stages, exported for the failover chaos suite's kill
// schedule.
const (
	StageIdle      = int(stIdle)
	StagePrepare   = int(stPrepare)
	StageCompBegin = int(stCompBegin)
	StageRound     = int(stRound)
	StageDecide    = int(stDecide)
	StageCommit    = int(stCommit)
)

// RowsExchanged returns how many rows the exchange rounds have shipped so
// far, self-addressed ones included.
func (d *Deployment) RowsExchanged() uint64 { return d.metrics.rows.Load() }

// SetStageHook installs a callback fired on every driver stage transition
// (node name, tick, attempt, stage). The hook runs inside the leader's
// message handler, so faults it injects (SetDown, Partition) take effect
// before the stage's broadcasts are delivered.
func (d *Deployment) SetStageHook(h func(node string, tick, att uint64, stg int)) {
	d.stageHook = h
}

// ControlState summarizes one coordinator's replicated view for test
// assertions.
type ControlState struct {
	Applied       int
	Decided       int // decided control-log slots, no-op fillers and duplicates included
	Epoch         uint64
	Leader        int
	Committed     uint64
	Queued        int
	Driving       bool
	DriveStage    int
	Elections     uint64
	StaleDecrees  uint64
	DoubleCommits uint64
}

// ControlStates returns each coordinator's view, in index order.
func (d *Deployment) ControlStates() []ControlState {
	out := make([]ControlState, len(d.coords))
	for i, cn := range d.coords {
		cs := ControlState{
			Applied:       cn.cons.Applied(),
			Decided:       d.group.DecidedCount(cn.name()),
			Epoch:         cn.st.epoch,
			Leader:        cn.st.leader,
			Committed:     cn.st.committed,
			Queued:        len(cn.st.queue),
			Driving:       cn.drv != nil,
			DriveStage:    StageIdle,
			Elections:     cn.st.elections,
			StaleDecrees:  cn.st.stale,
			DoubleCommits: cn.st.doubleCommits,
		}
		if cn.drv != nil {
			cs.DriveStage = int(cn.drv.stg)
		}
		out[i] = cs
	}
	return out
}

// DebugString renders the full control-plane and replica state — the
// post-mortem dump when a chaos scenario fails to settle.
func (d *Deployment) DebugString() string {
	s := ""
	for i, cn := range d.coords {
		cs := d.ControlStates()[i]
		s += fmt.Sprintf("coord %s down=%v %+v\n", cn.name(), d.net.Down(cn.name()), cs)
		s += fmt.Sprintf("  cons: %s\n", cn.cons.DebugString())
	}
	for _, r := range d.replicas {
		s += fmt.Sprintf("replica %d down=%v committed=%d curTick=%d curAtt=%d curEpoch=%d\n",
			r.self, d.net.Down(r.name()), r.committed, r.curTick, r.curAtt, r.curEpoch)
	}
	s += fmt.Sprintf("submitted=%d now=%d\n", d.submitted, d.net.Now())
	return s
}
