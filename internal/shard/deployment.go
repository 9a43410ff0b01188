package shard

import (
	"fmt"
	"sort"
	"strings"

	"hydro/internal/cluster"
	"hydro/internal/consensus"
	"hydro/internal/datalog"
	"hydro/internal/simnet"
)

// Options tunes a deployment.
type Options struct {
	// Declared fixes partition columns for specific predicates (hlang
	// `partition(col)` table annotations, else table keys), overriding the
	// join votes.
	Declared map[string]int
}

// DefaultRetryAfter is the coordinator's stall watchdog: an attempt that
// makes no progress for this long (virtual time) is restarted. It is far
// above one healthy barrier round-trip (sub-ms at LAN latencies) so only
// genuine stalls — down replicas, cut links — trip the restart.
const DefaultRetryAfter simnet.Time = 1_000_000 // 1s virtual

// DefaultCoordinators is the size of the replicated control plane
// (DESIGN.md §13): three, so one fault leaves a quorum.
const DefaultCoordinators = 3

// Deployment is a datalog program running sharded across cluster-hosted
// replicas. Submit queues base-relation ticks; the coordinator commits
// them in order as the simulation runs; Dump reads back the converged
// fixpoint (union of shards, one copy of mirrored relations).
type Deployment struct {
	name         string
	net          *simnet.Network
	place        *Placement
	prog         *datalog.Program // each replica maintains it with a datalog.Incremental of its own
	comps        int              // evaluation components, driven in order
	err          error            // the evaluation failure the deployment stopped at
	arities      map[string]int
	edb          map[string]int
	replicas     []*replica
	replicaNames []string
	coordNames   []string
	coords       []*coordNode
	group        *consensus.Group
	submitted    uint64
	metrics      ctlMetrics
	stageHook    func(node string, tick, att uint64, stg int) // test injection point
}

// Deploy hosts one replica of prog on each named machine of cl, sharding
// base relations per the derived placement. edb maps base predicates to
// arities; derived predicates are inferred from the rules and must not
// overlap edb.
func Deploy(cl *cluster.Cluster, name string, prog *datalog.Program, edb map[string]int, machines []string, opts Options) (*Deployment, error) {
	return deploy(cl, name, prog, edb, machines, opts, DefaultCoordinators)
}

// deploy is Deploy with ncoord coordinators.
func deploy(cl *cluster.Cluster, name string, prog *datalog.Program, edb map[string]int, machines []string, opts Options, ncoord int) (*Deployment, error) {
	if len(machines) < 1 {
		return nil, fmt.Errorf("shard: need at least one machine")
	}
	place, err := NewPlacement(prog, edb, len(machines), opts.Declared)
	if err != nil {
		return nil, err
	}
	comps := prog.Components()
	arities := map[string]int{}
	for pred, ar := range edb {
		arities[pred] = ar
	}
	for _, c := range comps {
		for _, r := range c.Rules {
			h := r.Head.Pred
			if _, isBase := edb[h]; isBase {
				return nil, fmt.Errorf("shard: %s is both a base relation and a rule head", h)
			}
			arities[h] = len(r.Head.Args)
		}
	}
	for _, pred := range place.Preds {
		if _, ok := arities[pred]; !ok {
			return nil, fmt.Errorf("shard: predicate %s has no declared arity (add it to edb)", pred)
		}
	}

	d := &Deployment{
		name:         name,
		net:          cl.Net,
		place:        place,
		prog:         prog,
		comps:        len(comps),
		arities:      arities,
		edb:          edb,
		replicaNames: machines,
	}
	for i := 0; i < ncoord; i++ {
		d.coordNames = append(d.coordNames, fmt.Sprintf("%s-coord%d", name, i))
	}
	for i := range machines {
		r, err := newReplica(d, i)
		if err != nil {
			return nil, err
		}
		d.replicas = append(d.replicas, r)
		cl.HostNode(machines[i], r.handle)
	}
	// The replicated control plane: one embedded Paxos participant per
	// coordinator, multiplexed with the BSP protocol on the same node
	// (coordNode.handle routes by message type). Coordinators live outside
	// the machine failure domains on purpose — the chaos suites fault them
	// independently of the data plane.
	d.group = consensus.NewEmbeddedGroup(cl.Net, d.coordNames, ctlSeed(name))
	for i, cname := range d.coordNames {
		cn := &coordNode{dep: d, idx: i, cons: d.group.Nodes[cname], st: newCtlState()}
		cn.cons.OnDecide = func(slot int, v any) { cn.applyDecree(v) }
		d.coords = append(d.coords, cn)
		cl.Net.AddNode(cname, cn.handle)
	}
	for _, cn := range d.coords {
		cn.armTimer()
	}
	return d, nil
}

// ctlSeed derives the control plane's deterministic RNG seed from the
// deployment name (FNV-1a, the placement hash's), so same name + same
// simnet seed ⇒ same election and backoff schedule.
func ctlSeed(name string) int64 {
	h := fnvOffset
	for i := 0; i < len(name); i++ {
		h = hashByte(h, name[i])
	}
	return int64(h & (1<<62 - 1))
}

// Placement returns the deployment's predicate placement.
func (d *Deployment) Placement() *Placement { return d.place }

// Replicas returns a copy of the replica node names in replica-index
// order. (A fresh slice every call: callers shuffle or truncate these in
// chaos tests, and aliasing the live routing table would corrupt the
// deployment — the same live-slice bug class as the old consensus Peek.)
func (d *Deployment) Replicas() []string { return append([]string(nil), d.replicaNames...) }

// Coordinators returns a copy of the coordinator node names in index
// order.
func (d *Deployment) Coordinators() []string { return append([]string(nil), d.coordNames...) }

// Leader returns the node name of the coordinator holding the current
// epoch's lease, per the most-caught-up coordinator's view.
func (d *Deployment) Leader() string { return d.coordNames[d.view().st.leader] }

// view returns the coordinator with the longest applied decree prefix —
// the freshest replicated view (ties break to the lowest index).
func (d *Deployment) view() *coordNode {
	best := d.coords[0]
	for _, cn := range d.coords[1:] {
		if cn.cons.Applied() > best.cons.Applied() {
			best = cn
		}
	}
	return best
}

// KillCoordinator takes a coordinator off the network (its timers are
// discarded; state is kept, as with any simnet crash).
func (d *Deployment) KillCoordinator(name string) { d.net.SetDown(name, true) }

// RecoverCoordinator brings a killed coordinator back and re-arms it: a
// recovered node first catches up on the decree log, then resumes
// whatever role the log assigns it.
func (d *Deployment) RecoverCoordinator(name string) {
	d.net.SetDown(name, false)
	d.net.After(name, 0, recoverKickMsg{})
}

// Submit queues one tick of base-relation ops (applied owner-side with
// insert-if-absent / delete-if-present semantics, so redundant ops are
// no-ops). Admission is a decree on the replicated control log. The tick
// goes into the inbox of every live coordinator, so no single crash can
// lose it, and the epoch's leader proposes it (coordNode.offer); a standby
// proposes its inbox only behind an election. The ops and their tuples are
// copied: callers may reuse their buffers.
func (d *Deployment) Submit(ops []datalog.DeltaOp) error {
	for _, op := range ops {
		ar, ok := d.edb[op.Pred]
		if !ok {
			return fmt.Errorf("shard: %s is not a base relation", op.Pred)
		}
		if len(op.T) != ar {
			return fmt.Errorf("shard: %s arity %d, got tuple %v", op.Pred, ar, op.T)
		}
	}
	var live []*coordNode
	for _, cn := range d.coords {
		if !d.net.Down(cn.name()) {
			live = append(live, cn)
		}
	}
	if len(live) == 0 {
		// Never count a tick no coordinator heard about: Settle would wait
		// forever for a submission that exists only in this counter.
		return fmt.Errorf("shard: no live coordinator to accept tick %d", d.submitted+1)
	}
	sub := decreeSubmit{Seq: d.submitted, Ops: copyOps(ops)}
	d.submitted++
	for _, cn := range live {
		cn.offer(sub)
	}
	return nil
}

// copyOps copies ops and every tuple they carry, the tuples into one
// backing slice.
func copyOps(ops []datalog.DeltaOp) []datalog.DeltaOp {
	n := 0
	for _, op := range ops {
		n += len(op.T)
	}
	vals := make(datalog.Tuple, 0, n)
	cp := make([]datalog.DeltaOp, len(ops))
	for i, op := range ops {
		lo := len(vals)
		vals = append(vals, op.T...)
		cp[i] = op
		cp[i].T = vals[lo:len(vals):len(vals)]
	}
	return cp
}

// SubmittedTicks returns the number of ticks queued so far.
func (d *Deployment) SubmittedTicks() uint64 { return d.submitted }

// CommittedTicks returns the number of ticks committed on every data
// replica — the convergence frontier Dump is valid for. (The replicated
// control log can be ahead of this: a commit decree seals a tick before
// the broadcast lands.)
func (d *Deployment) CommittedTicks() uint64 {
	min := ^uint64(0)
	for _, r := range d.replicas {
		if r.committed < min {
			min = r.committed
		}
	}
	return min
}

// Settle steps the network until every submitted tick has committed on
// every replica, up to maxEvents deliveries. It reports whether the
// deployment converged; one stopped by Err never does.
func (d *Deployment) Settle(maxEvents int) bool {
	for i := 0; i < maxEvents; i++ {
		if d.CommittedTicks() >= d.submitted {
			return true
		}
		if d.err != nil {
			return false
		}
		if !d.net.Step() {
			return d.CommittedTicks() >= d.submitted
		}
	}
	return d.CommittedTicks() >= d.submitted
}

// Err returns the evaluation failure the deployment stopped at, or nil. A
// tick whose component fails to evaluate (an aggregate over a non-numeric
// value, say) never commits: every replica rolls it back, as a single
// node's Incremental.Apply does, and no later tick is driven.
func (d *Deployment) Err() error { return d.err }

// Dump returns the converged global contents of every predicate: the
// shard union for sharded relations, replica 0's copy for mirrored ones.
// Call after Settle.
func (d *Deployment) Dump() map[string][]datalog.Tuple {
	out := map[string][]datalog.Tuple{}
	for _, pred := range d.place.Preds {
		if d.place.Specs[pred].Mirrored {
			out[pred] = d.replicas[0].db.Get(pred).Tuples()
			continue
		}
		union := datalog.NewRelation(pred, d.arities[pred])
		for _, r := range d.replicas {
			for _, t := range r.db.Get(pred).Tuples() {
				union.Insert(t)
			}
		}
		out[pred] = union.Tuples()
	}
	return out
}

// DumpString renders Dump canonically (predicates sorted, tuples in
// canonical order) for byte-level comparison across shard counts and
// against a single-node reference.
func (d *Deployment) DumpString() string { return renderDump(d.Dump()) }

// CheckMirrors verifies every replica holds identical copies of each
// mirrored predicate — the core replication invariant, checked by the
// chaos tests after convergence.
func (d *Deployment) CheckMirrors() error {
	for _, pred := range d.place.Preds {
		if !d.place.Specs[pred].Mirrored {
			continue
		}
		ref := canonTuples(d.replicas[0].db.Get(pred).Tuples())
		for i := 1; i < len(d.replicas); i++ {
			got := canonTuples(d.replicas[i].db.Get(pred).Tuples())
			if strings.Join(got, "\n") != strings.Join(ref, "\n") {
				return fmt.Errorf("shard: mirrored %s diverged between replica 0 and %d", pred, i)
			}
		}
	}
	return nil
}

// DumpDatabase renders db's relations for preds in the same canonical form
// as DumpString — the single-node reference side of the equivalence tests.
func DumpDatabase(db *datalog.Database, preds []string) string {
	out := map[string][]datalog.Tuple{}
	for _, pred := range preds {
		if rel := db.Get(pred); rel != nil {
			out[pred] = rel.Tuples()
		} else {
			out[pred] = nil
		}
	}
	return renderDump(out)
}

// canonTuples is the canonical text form of a tuple set, the one place a
// tuple is rendered to a string: each value with its type tag, so int64(1)
// and "1" never collide, and the lines sorted.
func canonTuples(ts []datalog.Tuple) []string {
	out := make([]string, len(ts))
	var b strings.Builder
	for i, t := range ts {
		b.Reset()
		for _, v := range t {
			fmt.Fprintf(&b, "%T:%v|", v, v)
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

func renderDump(m map[string][]datalog.Tuple) string {
	preds := make([]string, 0, len(m))
	for pred := range m {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	var b strings.Builder
	for _, pred := range preds {
		b.WriteString(pred)
		b.WriteString(":\n")
		for _, line := range canonTuples(m[pred]) {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}
