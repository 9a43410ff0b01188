// Package simnet is a deterministic discrete-event network simulator: the
// substitute for the real cloud network (see DESIGN.md §5). It delivers
// messages with seeded random latency, optional drops, partitions and node
// failures — exactly the "unbounded delay, non-deterministic arrival"
// semantics HydroLogic's send assumes, but reproducible under a seed.
//
// Time is virtual, in integer microseconds. All scheduling is through a
// binary heap keyed on (time, sequence), so runs are bit-for-bit repeatable.
package simnet

import (
	"fmt"
	"math/rand"
)

// Time is virtual time in microseconds.
type Time int64

// Message is an in-flight or delivered network message.
type Message struct {
	From, To string
	Payload  any
	Sent     Time
	Deliver  Time
}

// Handler receives a message at a node.
type Handler func(now Time, msg Message)

// Config tunes the simulated fabric.
type Config struct {
	Seed int64
	// MinLatency/MaxLatency bound one-way delivery latency.
	MinLatency, MaxLatency Time
	// DropRate is the probability a message is silently lost.
	DropRate float64
	// CrossDomainPenalty adds latency when From and To are in different
	// latency domains (set via SetDomain) — models AZ-to-AZ hops.
	CrossDomainPenalty Time
	// SendOverhead serializes consecutive sends from one node: each send
	// occupies the sender's NIC for this long before the message departs.
	// Zero models infinite fan-out bandwidth; non-zero exposes the root
	// bottleneck that makes tree collectives beat naive fan-out.
	SendOverhead Time
}

// DefaultConfig is a LAN-ish fabric: 50-500µs latency, no drops.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, MinLatency: 50, MaxLatency: 500}
}

// Stats counts network activity.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // random drops
	Blocked   uint64 // partition/down drops
}

type event struct {
	at    Time
	seq   uint64
	msg   Message
	timer bool // timer events fire even when links are partitioned
}

// eventHeap is a binary min-heap on (at, seq). It is container/heap's
// algorithm written out for event, so no event is boxed into an interface
// on its way in or out; seq is unique, so the pop order is fully
// determined.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{} // the backing array must not keep a delivered payload alive
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q.less(r, m) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

func (h eventHeap) Peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// Network is the simulated fabric. Not safe for concurrent use: the whole
// simulation is single-threaded and deterministic.
type Network struct {
	cfg     Config
	now     Time
	seq     uint64
	queue   eventHeap
	nodes   map[string]Handler
	domain  map[string]string
	down    map[string]bool
	cut     map[string]bool // partitioned unordered pairs, key "a|b" with a<b
	nicFree map[string]Time // per-node send-occupancy horizon
	rng     *rand.Rand
	stats   Stats
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency
	}
	return &Network{
		cfg:     cfg,
		nodes:   map[string]Handler{},
		domain:  map[string]string{},
		down:    map[string]bool{},
		cut:     map[string]bool{},
		nicFree: map[string]Time{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Now returns current virtual time.
func (n *Network) Now() Time { return n.now }

// Stats returns a copy of the counters.
func (n *Network) Stats() Stats { return n.stats }

// AddNode registers a node's message handler.
func (n *Network) AddNode(name string, h Handler) {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("simnet: node %q already registered", name))
	}
	n.nodes[name] = h
}

// SetHandler replaces a node's handler (used when a node restarts with
// fresh state).
func (n *Network) SetHandler(name string, h Handler) { n.nodes[name] = h }

// SetDomain assigns a node to a latency domain (e.g. its AZ).
func (n *Network) SetDomain(name, domain string) { n.domain[name] = domain }

// SetDown marks a node crashed (true) or recovered (false). Messages to or
// from a down node are dropped.
func (n *Network) SetDown(name string, down bool) { n.down[name] = down }

// Down reports whether a node is crashed.
func (n *Network) Down(name string) bool { return n.down[name] }

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Partition cuts the link between a and b (both directions).
func (n *Network) Partition(a, b string) { n.cut[pairKey(a, b)] = true }

// Heal restores the link between a and b.
func (n *Network) Heal(a, b string) { delete(n.cut, pairKey(a, b)) }

// latency draws a one-way latency for the pair.
func (n *Network) latency(from, to string) Time {
	span := int64(n.cfg.MaxLatency - n.cfg.MinLatency)
	l := n.cfg.MinLatency
	if span > 0 {
		l += Time(n.rng.Int63n(span + 1))
	}
	if df, dt := n.domain[from], n.domain[to]; df != dt {
		l += n.cfg.CrossDomainPenalty
	}
	return l
}

// Send schedules delivery of payload from one node to another. Returns the
// scheduled delivery time, or -1 if the message was dropped at send time.
func (n *Network) Send(from, to string, payload any) Time {
	n.stats.Sent++
	if n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
		n.stats.Dropped++
		return -1
	}
	depart := n.now
	if n.cfg.SendOverhead > 0 {
		if free := n.nicFree[from]; free > depart {
			depart = free
		}
		depart += n.cfg.SendOverhead
		n.nicFree[from] = depart
	}
	at := depart + n.latency(from, to)
	n.seq++
	n.queue.push(event{
		at:  at,
		seq: n.seq,
		msg: Message{From: from, To: to, Payload: payload, Sent: n.now, Deliver: at},
	})
	return at
}

// After schedules a timer: node receives payload from itself after delay.
// Timers fire even across partitions (they are local), but not on down
// nodes.
func (n *Network) After(node string, delay Time, payload any) {
	n.seq++
	at := n.now + delay
	n.queue.push(event{
		at:    at,
		seq:   n.seq,
		msg:   Message{From: node, To: node, Payload: payload, Sent: n.now, Deliver: at},
		timer: true,
	})
}

// Step delivers the next event, advancing virtual time. It returns false
// when no events remain.
func (n *Network) Step() bool {
	for {
		if len(n.queue) == 0 {
			return false
		}
		e := n.queue.pop()
		n.now = e.at
		msg := e.msg
		if n.down[msg.To] || (!e.timer && n.down[msg.From]) {
			n.stats.Blocked++
			continue
		}
		if !e.timer && len(n.cut) > 0 && n.cut[pairKey(msg.From, msg.To)] {
			n.stats.Blocked++
			continue
		}
		h, ok := n.nodes[msg.To]
		if !ok {
			n.stats.Blocked++
			continue
		}
		n.stats.Delivered++
		h(n.now, msg)
		return true
	}
}

// RunUntil processes events until virtual time passes deadline or the queue
// empties. It returns the number of deliveries.
func (n *Network) RunUntil(deadline Time) int {
	count := 0
	for {
		e, ok := n.queue.Peek()
		if !ok || e.at > deadline {
			if n.now < deadline {
				n.now = deadline
			}
			return count
		}
		if n.Step() {
			count++
		}
	}
}

// Drain processes every pending event (and any it spawns) up to a safety
// bound, returning deliveries. Use for "run to quiescence" tests.
func (n *Network) Drain(maxEvents int) int {
	count := 0
	for i := 0; i < maxEvents; i++ {
		if !n.Step() {
			return count
		}
		count++
	}
	return count
}
