package shard

import (
	"fmt"

	"hydro/internal/cluster"
	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// Test-only exports: the chaos suites inject faults at exact protocol
// positions via the stage hook and read internal control-plane state.

// Coordinator stages, exported for the failover chaos suite's kill
// schedule.
const (
	StageIdle    = int(stIdle)
	StagePrepare = int(stPrepare)
	StageDecide  = int(stDecide)
	StageCommit  = int(stCommit)
)

// DeployOneCoordinator is Deploy with a single-coordinator control plane:
// no failover, the never-failed oracle the chaos suite compares against.
func DeployOneCoordinator(cl *cluster.Cluster, name string, prog *datalog.Program, edb map[string]int, machines []string, opts Options) (*Deployment, error) {
	return deploy(cl, name, prog, edb, machines, opts, 1)
}

// RowsExchanged returns Metrics().RowsShipped.
func (d *Deployment) RowsExchanged() uint64 { return d.Metrics().RowsShipped }

// CountDelivered adds to *n the rows of every exchange batch the network
// delivers to a replica from a peer.
func (d *Deployment) CountDelivered(n *uint64) {
	for _, r := range d.replicas {
		d.net.SetHandler(r.name(), func(now simnet.Time, msg simnet.Message) {
			if x, ok := msg.Payload.(xchMsg); ok {
				*n += uint64(x.Rows.Len() + x.Cands.Len())
			}
			r.handle(now, msg)
		})
	}
}

// Exchange is Received.Kind for a component round.
const Exchange = -1

// Received is what a replica did in tick Tick: receive a coordinator
// request of stage Kind, or, with Kind Exchange, step round Round of
// component Comp and send every replica its batch — round 0 starts the
// component, deleting from its inputs if HasDel.
type Received struct {
	Replica, Kind int
	Tick          uint64
	Comp, Round   int
	HasDel        bool
}

// WatchReplicas hands watch every coordinator request the network
// delivers to a replica, and every component round a replica steps.
func (d *Deployment) WatchReplicas(watch func(Received)) {
	for _, r := range d.replicas {
		d.net.SetHandler(r.name(), func(now simnet.Time, msg simnet.Message) {
			if m, ok := msg.Payload.(req); ok {
				watch(Received{Replica: r.self, Kind: int(m.Kind), Tick: m.Tick})
			}
			r.handle(now, msg)
		})
	}
	d.roundHook = func(i int, tick uint64, k rkey, del bool) {
		watch(Received{Replica: i, Kind: Exchange, Tick: tick, Comp: k.comp, Round: k.round, HasDel: del && k.round == 0})
	}
}

// Owner returns the replica pred's base row t is routed to; −1 when every
// replica holds pred.
func (p *Placement) Owner(pred string, t datalog.Tuple) int {
	if s := p.Specs[pred]; !s.Mirrored {
		return shardOf(t, s.Col, p.N)
	}
	return -1
}

// CheckOwners verifies that every replica holds only the rows it owns of
// each sharded predicate.
func (d *Deployment) CheckOwners() error {
	for _, pred := range d.place.Preds {
		if s := d.place.Specs[pred]; !s.Mirrored {
			for _, r := range d.replicas {
				for _, t := range r.db.Get(pred).Tuples() {
					if o := shardOf(t, s.Col, d.place.N); o != r.self {
						return fmt.Errorf("shard: replica %d holds %s%v, which replica %d owns", r.self, pred, t, o)
					}
				}
			}
		}
	}
	return nil
}

// Intern has replica i's dictionary intern vals, in order, by inserting
// and deleting the tuple (v, v) of the binary base relation pred: the
// relation ends as it was, and the dictionary keeps what it interned.
func (d *Deployment) Intern(i int, pred string, vals ...any) {
	rel := d.replicas[i].db.Get(pred)
	for _, v := range vals {
		if t := (datalog.Tuple{v, v}); rel.Insert(t) {
			rel.Delete(t)
		}
	}
}

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
