// Package consensus implements multi-decree Paxos over the simulated
// network. It is the "traditional heavyweight" coordination mechanism from
// §7.2 — the thing CALM analysis lets monotone code avoid, and the thing
// Hydrolysis inserts at coordination points (serializable handlers,
// state-machine replication for the availability facet).
//
// The implementation is the classic collapsed-roles design: every node is
// proposer, acceptor and learner. A node becomes leader by completing
// phase 1 (prepare/promise) for a ballot; it then runs phase 2
// (accept/accepted) per log slot, one round per value, for as long as no
// higher ballot appears. Timeouts with per-node randomized backoff restore
// liveness after leader failure. Which node proposes is the host's choice:
// every Propose on a node that is not leader starts phase 1, so a host that
// wants the Multi-Paxos steady state proposes through one distinguished
// node (Lamport, "Paxos Made Simple" §3), as the sharded control plane does.
//
// Phase 1 and catch-up cost the undecided tail, not the log: a prepare
// carries the proposer's contiguous decided prefix and the promise holds
// only accepted slots at or above it, the promise-quorum hole fill walks
// from the applied prefix, and a learn request carries the asker's applied
// prefix and is answered with the decided slots at or above it (Chandra,
// Griesemer, Redstone, "Paxos Made Live", PODC 2007). The log itself is
// kept whole.
package consensus

import (
	"fmt"
	"math/rand"
	"sort"

	"hydro/internal/simnet"
)

// Ballot orders proposal rounds. Uniqueness comes from embedding the node
// index: ballot = round*len(peers) + nodeIndex.
type Ballot int64

// prepareMsg opens phase 1. Decided is the proposer's contiguous decided
// prefix (Node.applied): it holds every slot below in its log and ignores
// whatever a promise says about them, so the acceptor leaves them out.
type prepareMsg struct {
	Ballot  Ballot
	Decided int
}

type promiseMsg struct {
	Ballot   Ballot
	Accepted map[int]acceptedVal // slot → highest accepted, slots at or above the prepare's Decided
}

type acceptMsg struct {
	Ballot Ballot
	Slot   int
	Value  entry
}

// acceptedMsg is an acceptor's phase-2 vote. ID identifies the value voted
// for: a leader only credits votes whose ID matches what it is currently
// driving at the slot, so a vote for a value the slot no longer carries
// can never count toward a different value's quorum.
type acceptedMsg struct {
	Ballot Ballot
	Slot   int
	ID     string
}

type decideMsg struct {
	Slot  int
	Value entry
}

type nackMsg struct {
	Promised Ballot
}

type timeoutMsg struct {
	Seq uint64
}

// learnReq asks a peer for its decided log — the catch-up path for a node
// that recovered from a crash or partition and suspects it is behind.
// Applied is the asker's contiguous applied prefix: it holds every slot
// below, so the responder answers with slots at or above it only. The zero
// value asks for everything.
type learnReq struct {
	Applied int
}

// learnRsp carries the responder's decided slots at or above the request's
// Applied. The map is a fresh copy: the learner merges it into its own log
// without aliasing responder state.
type learnRsp struct {
	Slots map[int]entry
}

// noop fills a log hole: after winning phase 1, a leader seals every slot
// below the highest known slot that no quorum member reported an accepted
// value for. Such a slot cannot hold a chosen value (a chosen value is
// accepted by a majority, which intersects the promise quorum), so a no-op
// is safe — and without it the hole would stall contiguous application
// forever. Noops are invisible to Log and OnDecide.
type noop struct{}

// IsMessage reports whether payload is consensus protocol traffic — used by
// hosts that embed a Paxos node inside a larger handler to route messages.
func IsMessage(payload any) bool {
	switch payload.(type) {
	case prepareMsg, promiseMsg, acceptMsg, acceptedMsg, decideMsg, nackMsg, timeoutMsg, learnReq, learnRsp:
		return true
	}
	return false
}

type acceptedVal struct {
	Ballot Ballot
	Value  entry
}

// entry is a proposed command tagged with a unique proposal ID. A command
// may occupy more than one slot when its original proposer times out and
// re-proposes while the first accept quietly succeeds; the learner dedupes
// by ID at application time — the standard SMR at-most-once discipline.
type entry struct {
	ID    string
	Value any
}

// Node is one Paxos participant.
type Node struct {
	name  string
	index int
	peers []string // includes self
	net   *simnet.Network
	rng   *rand.Rand

	// Acceptor state.
	promised    Ballot
	accepted    map[int]acceptedVal
	maxAccepted int // highest slot in accepted, -1 when empty

	// Proposer/leader state.
	ballot      Ballot
	leader      bool
	phase1Votes map[string]promiseMsg
	pending     []entry       // values waiting for a slot
	inFlight    map[int]entry // slot → value being accepted
	acceptVotes map[int]map[string]bool
	nextSlot    int
	proposeSeq  uint64
	timeoutSeq  uint64
	backoffBase simnet.Time

	// Learner state.
	log     map[int]entry
	decided int // count of decided slots
	maxSlot int // highest slot in log, -1 when empty

	// OnDecide, when set, is invoked once per distinct command in slot
	// order as the log becomes contiguous (state-machine application).
	// Duplicate slots for the same proposal ID are skipped.
	OnDecide func(slot int, value any)
	applied  int
	seenIDs  map[string]bool

	stats Stats
}

// Stats counts one node's protocol work.
type Stats struct {
	Phase1Rounds uint64 // phase-1 rounds this node started
	Sends        uint64 // protocol messages this node sent, to itself included
}

// Group is a set of Paxos nodes sharing a network.
type Group struct {
	Nodes map[string]*Node
	names []string
	net   *simnet.Network
}

// NewGroup wires n Paxos nodes named "p0".."p{n-1}" into the network.
func NewGroup(net *simnet.Network, n int, seed int64) *Group {
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("p%d", i))
	}
	g := newGroup(net, names, seed)
	for _, name := range g.names {
		net.AddNode(name, g.Nodes[name].handle)
	}
	return g
}

// NewEmbeddedGroup builds a Paxos group over caller-owned network nodes:
// no handlers are registered, so a host that multiplexes consensus traffic
// with its own protocol on one node name routes messages in via
// Node.Handle (gated by IsMessage). Used by the replicated shard
// coordinator, whose control decrees share the coordinator node with the
// BSP data-plane protocol.
func NewEmbeddedGroup(net *simnet.Network, names []string, seed int64) *Group {
	return newGroup(net, append([]string(nil), names...), seed)
}

func newGroup(net *simnet.Network, names []string, seed int64) *Group {
	g := &Group{Nodes: map[string]*Node{}, net: net, names: names}
	for i, name := range g.names {
		node := &Node{
			name:        name,
			index:       i,
			peers:       g.names,
			net:         net,
			rng:         rand.New(rand.NewSource(seed + int64(i))),
			accepted:    map[int]acceptedVal{},
			maxAccepted: -1,
			phase1Votes: map[string]promiseMsg{},
			inFlight:    map[int]entry{},
			acceptVotes: map[int]map[string]bool{},
			log:         map[int]entry{},
			maxSlot:     -1,
			seenIDs:     map[string]bool{},
			backoffBase: 2000,
		}
		g.Nodes[name] = node
	}
	return g
}

// Names returns the node names in index order.
func (g *Group) Names() []string { return append([]string(nil), g.names...) }

// Propose submits a value through the given node.
func (g *Group) Propose(node string, value any) { g.Nodes[node].Propose(value) }

// Log returns a node's decided command sequence: the dense slot prefix with
// duplicate proposal IDs collapsed (at-most-once application order) and
// no-op hole fillers skipped. The slice is freshly allocated.
func (g *Group) Log(node string) []any {
	n := g.Nodes[node]
	var out []any
	seen := map[string]bool{}
	for slot := 0; ; slot++ {
		e, ok := n.log[slot]
		if !ok {
			return out
		}
		if seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		if _, isNoop := e.Value.(noop); isNoop {
			continue
		}
		out = append(out, e.Value)
	}
}

// DecidedCount returns the number of decided slots at a node.
func (g *Group) DecidedCount(node string) int { return g.Nodes[node].decided }

// Propose submits a value through this node: it is queued with a unique
// proposal ID and driven to a log slot by this node's proposer role.
func (n *Node) Propose(value any) {
	n.proposeSeq++
	n.pending = append(n.pending, entry{ID: fmt.Sprintf("%s#%d", n.name, n.proposeSeq), Value: value})
	n.kick()
}

// Handle feeds one network message to the node — the embedded-group entry
// point for hosts that own the network handler themselves.
func (n *Node) Handle(now simnet.Time, msg simnet.Message) { n.handle(now, msg) }

// Applied returns how many contiguous log slots have been applied — a
// cheap staleness signal two peers can compare to decide who needs to
// catch up.
func (n *Node) Applied() int { return n.applied }

// Stats returns the node's protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// RequestLearn asks peer for the decided slots this node has not applied
// (crash/partition catch-up). The response merges into this node's log and
// drives OnDecide forward.
func (n *Node) RequestLearn(peer string) {
	n.send(peer, learnReq{Applied: n.applied})
}

// DebugString renders the node's proposer/learner state for test
// post-mortems.
func (n *Node) DebugString() string {
	return fmt.Sprintf("%s: ballot=%d promised=%d leader=%v pending=%d inFlight=%v nextSlot=%d decided=%d applied=%d timeoutSeq=%d",
		n.name, n.ballot, n.promised, n.leader, len(n.pending), n.inFlight, n.nextSlot, n.decided, n.applied, n.timeoutSeq)
}

func (n *Node) majority() int { return len(n.peers)/2 + 1 }

func (n *Node) send(to string, payload any) {
	n.stats.Sends++
	n.net.Send(n.name, to, payload)
}

// bcast sends to every peer, self included: self messages go through the
// network too, keeping one code path (they get latency like any other).
func (n *Node) bcast(payload any) {
	for _, p := range n.peers {
		n.send(p, payload)
	}
}

// kick starts (or continues) proposing if there is work.
func (n *Node) kick() {
	if len(n.pending) == 0 && len(n.inFlight) == 0 {
		return
	}
	if n.leader {
		n.pump()
		return
	}
	n.startPhase1()
}

func (n *Node) startPhase1() {
	// Choose a ballot above anything seen, tagged with our index.
	round := int64(n.promised)/int64(len(n.peers)) + 1
	n.ballot = Ballot(round*int64(len(n.peers)) + int64(n.index))
	n.phase1Votes = map[string]promiseMsg{}
	n.leader = false
	n.stats.Phase1Rounds++
	n.bcast(prepareMsg{Ballot: n.ballot, Decided: n.applied})
	n.armTimeout()
}

func (n *Node) armTimeout() {
	n.timeoutSeq++
	// Randomized backoff avoids dueling leaders.
	delay := n.backoffBase + simnet.Time(n.rng.Int63n(int64(n.backoffBase)))
	n.net.After(n.name, delay, timeoutMsg{Seq: n.timeoutSeq})
}

// pump assigns pending values to slots and sends accepts (leader only).
func (n *Node) pump() {
	for len(n.pending) > 0 {
		v := n.pending[0]
		n.pending = n.pending[1:]
		for {
			if _, used := n.log[n.nextSlot]; used {
				n.nextSlot++
				continue
			}
			if _, used := n.inFlight[n.nextSlot]; used {
				n.nextSlot++
				continue
			}
			break
		}
		slot := n.nextSlot
		n.nextSlot++
		n.inFlight[slot] = v
		n.acceptVotes[slot] = map[string]bool{}
		n.bcast(acceptMsg{Ballot: n.ballot, Slot: slot, Value: v})
	}
	if len(n.inFlight) > 0 {
		n.armTimeout()
	}
}

func (n *Node) handle(now simnet.Time, msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case prepareMsg:
		if m.Ballot > n.promised {
			n.promised = m.Ballot
			if m.Ballot != n.ballot {
				n.leader = false
			}
			n.send(msg.From, promiseMsg{Ballot: m.Ballot, Accepted: n.acceptedFrom(m.Decided)})
		} else {
			n.send(msg.From, nackMsg{Promised: n.promised})
		}
	case promiseMsg:
		if m.Ballot != n.ballot || n.leader {
			return
		}
		n.phase1Votes[msg.From] = m
		if len(n.phase1Votes) < n.majority() {
			return
		}
		n.leader = true
		// Re-propose the highest-ballot accepted value per slot.
		repropose := map[int]acceptedVal{}
		for _, pm := range n.phase1Votes {
			for slot, av := range pm.Accepted {
				if _, done := n.log[slot]; done {
					continue
				}
				if cur, ok := repropose[slot]; !ok || av.Ballot > cur.Ballot {
					repropose[slot] = av
				}
			}
		}
		// Values we were driving under the previous ballot lose their slot
		// assignments: slots the quorum reported are re-driven with the
		// reported value, and the rest get fresh slots via pending — never
		// silently dropped, never left squatting on a slot the hole fill
		// below is about to seal.
		reproposed := map[string]bool{}
		for _, av := range repropose {
			reproposed[av.Value.ID] = true
		}
		var stranded []int
		for s := range n.inFlight {
			stranded = append(stranded, s)
		}
		sort.Ints(stranded)
		for _, s := range stranded {
			n.pending = append(n.pending, n.inFlight[s])
			delete(n.inFlight, s)
			delete(n.acceptVotes, s)
		}
		// Filter the WHOLE pending queue, not just the stranded values above:
		// the non-leader timeout path also re-queues in-flight values into
		// pending, and a command the promise quorum reported must never be
		// driven at a second fresh slot under this ballot — one decide would
		// abandon the other copy's slot with no safe way to seal it. Dedupe
		// by ID for the same reason.
		queued := map[string]bool{}
		kept := n.pending[:0]
		for _, e := range n.pending {
			if reproposed[e.ID] || n.seenIDs[e.ID] || queued[e.ID] {
				continue
			}
			queued[e.ID] = true
			kept = append(kept, e)
		}
		n.pending = kept
		slots := make([]int, 0, len(repropose))
		for s := range repropose {
			slots = append(slots, s)
		}
		sort.Ints(slots)
		for _, s := range slots {
			n.inFlight[s] = repropose[s].Value
			n.acceptVotes[s] = map[string]bool{}
			n.bcast(acceptMsg{Ballot: n.ballot, Slot: s, Value: repropose[s].Value})
			if s >= n.nextSlot {
				n.nextSlot = s + 1
			}
		}
		// Seal holes: any slot below the highest known slot with no accepted
		// value anywhere in the promise quorum is unchosen (choice requires a
		// majority, which intersects the quorum), so a no-op can take it.
		// Without this, a slot abandoned by a dead proposer would block
		// contiguous application forever.
		// Slots below applied are all decided, so the walk starts there.
		maxKnown := max(n.nextSlot-1, n.maxSlot)
		for s := n.applied; s <= maxKnown; s++ {
			if _, done := n.log[s]; done {
				continue
			}
			if _, busy := n.inFlight[s]; busy {
				continue
			}
			n.proposeSeq++
			e := entry{ID: fmt.Sprintf("%s#fill%d", n.name, n.proposeSeq), Value: noop{}}
			n.inFlight[s] = e
			n.acceptVotes[s] = map[string]bool{}
			n.bcast(acceptMsg{Ballot: n.ballot, Slot: s, Value: e})
		}
		n.pump()
	case acceptMsg:
		if m.Ballot >= n.promised {
			n.promised = m.Ballot
			n.accepted[m.Slot] = acceptedVal{Ballot: m.Ballot, Value: m.Value}
			n.maxAccepted = max(n.maxAccepted, m.Slot)
			n.send(msg.From, acceptedMsg{Ballot: m.Ballot, Slot: m.Slot, ID: m.Value.ID})
		} else {
			n.send(msg.From, nackMsg{Promised: n.promised})
		}
	case acceptedMsg:
		if m.Ballot != n.ballot || !n.leader {
			return
		}
		if cur, busy := n.inFlight[m.Slot]; !busy || cur.ID != m.ID {
			return // vote for a value this slot is no longer driving
		}
		votes, ok := n.acceptVotes[m.Slot]
		if !ok {
			return
		}
		votes[msg.From] = true
		if len(votes) >= n.majority() {
			v := n.inFlight[m.Slot]
			delete(n.inFlight, m.Slot)
			delete(n.acceptVotes, m.Slot)
			n.bcast(decideMsg{Slot: m.Slot, Value: v})
		}
	case decideMsg:
		if n.noteDecided(m.Slot, m.Value) {
			n.kick()
		}
		n.applyContiguous()
	case nackMsg:
		if m.Promised > n.ballot {
			n.leader = false
			// A higher ballot exists; back off and retry via timeout.
		}
	case timeoutMsg:
		if m.Seq != n.timeoutSeq {
			return // stale timer
		}
		if n.leader && len(n.inFlight) > 0 {
			// Still leader: retry the stuck slots in place. Re-queuing them
			// would assign fresh slots (nextSlot never reuses an abandoned
			// one), leaving permanent holes that stall OnDecide.
			var slots []int
			for s := range n.inFlight {
				slots = append(slots, s)
			}
			sort.Ints(slots)
			for _, s := range slots {
				n.acceptVotes[s] = map[string]bool{}
				n.bcast(acceptMsg{Ballot: n.ballot, Slot: s, Value: n.inFlight[s]})
			}
			n.pump() // flush anything pending; re-arms the timeout
			return
		}
		// Not leader: re-queue undecided in-flight values and retry
		// leadership — the phase 1 promises re-bind them to safe slots.
		var slots []int
		for s := range n.inFlight {
			slots = append(slots, s)
		}
		sort.Ints(slots)
		for _, s := range slots {
			n.pending = append(n.pending, n.inFlight[s])
			delete(n.inFlight, s)
			delete(n.acceptVotes, s)
		}
		if len(n.pending) > 0 {
			n.startPhase1()
		}
	case learnReq:
		slots := map[int]entry{}
		for s := m.Applied; s <= n.maxSlot; s++ {
			if e, ok := n.log[s]; ok {
				slots[s] = e
			}
		}
		n.send(msg.From, learnRsp{Slots: slots})
	case learnRsp:
		var slots []int
		for s := range m.Slots {
			slots = append(slots, s)
		}
		sort.Ints(slots)
		for _, s := range slots {
			n.noteDecided(s, m.Slots[s])
		}
		// Kick even when nothing was displaced: a node asks to learn after
		// it recovers, and simnet discarded the retry timer of the values
		// it had in flight while it was down.
		n.kick()
		n.applyContiguous()
	}
}

func (n *Node) applyContiguous() {
	for {
		e, ok := n.log[n.applied]
		if !ok {
			return
		}
		if !n.seenIDs[e.ID] {
			n.seenIDs[e.ID] = true
			if _, isNoop := e.Value.(noop); !isNoop && n.OnDecide != nil {
				n.OnDecide(n.applied, e.Value)
			}
		}
		n.applied++
	}
}

// noteDecided records a decided slot, drops pending duplicates of the
// decided command, and re-queues any competing in-flight value that just
// lost this slot. Reports whether a value was re-queued (caller should
// kick the proposer).
//
// An in-flight copy of the decided command at a DIFFERENT slot is left
// running: its accepts may already hold a majority there, and replacing
// an in-flight value at the same ballot would put two different values
// under one (ballot, slot) — acceptors overwrite on m.Ballot >= promised,
// so a quorum could be split across both values yet report the same
// ballot to a later phase 1, letting different leaders resurrect
// different values for the slot (divergent decides). A duplicate decide
// is harmless instead — the learner dedupes by proposal ID at apply
// time — and if this node dies first, the next leader's phase-1 hole
// fill seals the slot under a strictly higher ballot with quorum
// evidence it is unchosen.
func (n *Node) noteDecided(slot int, e entry) bool {
	if _, done := n.log[slot]; done {
		return false
	}
	n.log[slot] = e
	n.decided++
	n.maxSlot = max(n.maxSlot, slot)
	n.dropPending(e.ID)
	if cur, busy := n.inFlight[slot]; busy {
		delete(n.inFlight, slot)
		delete(n.acceptVotes, slot)
		if cur.ID != e.ID {
			// Our proposal lost the slot race; drive it to a fresh slot.
			n.pending = append(n.pending, cur)
			return true
		}
	}
	return false
}

// dropPending removes a command from the pending queue once it is known
// decided, so it is never assigned a fresh slot.
func (n *Node) dropPending(id string) {
	kept := n.pending[:0]
	for _, e := range n.pending {
		if e.ID != id {
			kept = append(kept, e)
		}
	}
	n.pending = kept
}

// acceptedFrom copies the accepted values at slots from decided up — what a
// promise carries. It looks the slots up one by one rather than ranging the
// map: the log grows without bound, the undecided tail does not. The walk
// runs to maxAccepted and on through any slots still present beyond it, so
// a value written into accepted without the accept path is reported too.
// The copy is fresh: a promise in flight must not see later accepts.
func (n *Node) acceptedFrom(decided int) map[int]acceptedVal {
	acc := map[int]acceptedVal{}
	for s := decided; ; s++ {
		av, ok := n.accepted[s]
		if !ok {
			if s > n.maxAccepted {
				return acc
			}
			continue
		}
		acc[s] = av
	}
}
