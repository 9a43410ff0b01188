// Package cluster simulates the cloud substrate of §6 and §9: machines with
// nested failure domains (VM ⊂ rack ⊂ DC ⊂ AZ), the one replica-placement
// rule (Topology.SpreadAcross), fault injection, and hosting of transducer
// runtimes over the simulated network. It is the stand-in for real cloud
// hardware (DESIGN.md §5).
package cluster

import (
	"fmt"
	"sort"

	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

// Domain names a failure-domain granularity, ordered by scope.
type Domain string

// Failure domains, smallest to largest.
const (
	VM   Domain = "vm"
	Rack Domain = "rack"
	DC   Domain = "dc"
	AZ   Domain = "az"
)

// MachineClass names a machine's hardware class.
type MachineClass struct {
	Name string
}

// ClassSmall is the one class every topology is built from.
var ClassSmall = MachineClass{Name: "small"}

// Machine is one simulated host.
type Machine struct {
	ID    string
	VM    string
	Rack  string
	DC    string
	AZ    string
	Class MachineClass
	up    bool
}

// Up reports whether the machine is running.
func (m *Machine) Up() bool { return m.up }

// DomainID returns the machine's identifier within the given domain.
func (m *Machine) DomainID(d Domain) string {
	switch d {
	case VM:
		return m.VM
	case Rack:
		return m.Rack
	case DC:
		return m.DC
	case AZ:
		return m.AZ
	}
	return m.ID
}

// Topology is a set of machines.
type Topology struct {
	Machines []*Machine
}

// NewTopology builds a symmetric topology: azs availability zones, each
// with racksPerAZ racks of machinesPerRack machines of the given class.
// Machine IDs look like "az1-r2-m3".
func NewTopology(azs, racksPerAZ, machinesPerRack int, class MachineClass) *Topology {
	t := &Topology{}
	for a := 1; a <= azs; a++ {
		for r := 1; r <= racksPerAZ; r++ {
			for m := 1; m <= machinesPerRack; m++ {
				id := fmt.Sprintf("az%d-r%d-m%d", a, r, m)
				t.Machines = append(t.Machines, &Machine{
					ID:    id,
					VM:    id,
					Rack:  fmt.Sprintf("az%d-r%d", a, r),
					DC:    fmt.Sprintf("az%d-dc", a),
					AZ:    fmt.Sprintf("az%d", a),
					Class: class,
					up:    true,
				})
			}
		}
	}
	return t
}

// Get returns the machine with the given ID, or nil.
func (t *Topology) Get(id string) *Machine {
	for _, m := range t.Machines {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// SpreadAcross is the replica-placement rule (§6): it picks n up machines
// so that no instance of domain d holds more than ⌈n/k⌉ of them, k being the
// number of d instances with an up machine. Losing one instance then takes
// out the fewest replicas possible; for n ≤ k every pick sits in its own
// instance. It walks the machines from the last one and takes each whose
// instance is under the cap. That greedy pick is optimal because the
// constraint is a partition matroid (Edmonds 1971), so no solver is needed.
// The machine IDs come back sorted, the replica index order a deployment
// uses. It errors when the up machines cannot hold n replicas under the cap.
func (t *Topology) SpreadAcross(d Domain, n int) ([]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 replica, asked for %d", n)
	}
	live := map[string]int{} // d instance → picks so far
	for _, m := range t.Machines {
		if m.up {
			live[m.DomainID(d)] = 0
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("cluster: no up machine to place %d replicas on", n)
	}
	limit := (n + len(live) - 1) / len(live)
	var out []string
	for i := len(t.Machines) - 1; i >= 0 && len(out) < n; i-- {
		m := t.Machines[i]
		if key := m.DomainID(d); m.up && live[key] < limit {
			live[key]++
			out = append(out, m.ID)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("cluster: only %d of %d replicas fit on the up machines at %d per %s domain",
			len(out), n, limit, d)
	}
	sort.Strings(out)
	return out, nil
}

// Cluster couples a topology, the simulated network, and hosted transducer
// runtimes. Rounds interleave network delivery with one tick per runtime —
// the co-simulation loop that stands in for real concurrent execution.
type Cluster struct {
	Net   *simnet.Network
	Topo  *Topology
	hosts map[string]*transducer.Runtime // machine ID → runtime
	order []string
}

// New builds a cluster over a topology.
func New(topo *Topology, cfg simnet.Config) *Cluster {
	c := &Cluster{
		Net:   simnet.New(cfg),
		Topo:  topo,
		hosts: map[string]*transducer.Runtime{},
	}
	return c
}

// Host places a runtime on a machine: the runtime's remote sends route over
// the network, and network deliveries land in the runtime's mailboxes.
func (c *Cluster) Host(machineID string, rt *transducer.Runtime) {
	m := c.Topo.Get(machineID)
	if m == nil {
		panic(fmt.Sprintf("cluster: unknown machine %q", machineID))
	}
	c.hosts[machineID] = rt
	c.order = append(c.order, machineID)
	sort.Strings(c.order)
	c.Net.SetDomain(machineID, m.AZ)
	rt.Remote = func(node string, msg transducer.Message) {
		c.Net.Send(machineID, node, msg)
	}
	c.Net.AddNode(machineID, func(now simnet.Time, nm simnet.Message) {
		if tm, ok := nm.Payload.(transducer.Message); ok {
			rt.Deliver(tm)
		}
	})
}

// HostNode places a raw network handler on a machine: the node inherits
// the machine's latency domain and failure-domain membership (FailDomain /
// Recover act on it through the machine), but is not ticked by Round —
// purely message-driven servers (e.g. shard replicas) host this way.
func (c *Cluster) HostNode(machineID string, h simnet.Handler) {
	m := c.Topo.Get(machineID)
	if m == nil {
		panic(fmt.Sprintf("cluster: unknown machine %q", machineID))
	}
	c.Net.SetDomain(machineID, m.AZ)
	c.Net.AddNode(machineID, h)
}

// Runtime returns the runtime hosted on a machine.
func (c *Cluster) Runtime(machineID string) *transducer.Runtime { return c.hosts[machineID] }

// FailDomain marks every machine in the named domain instance as down (e.g.
// FailDomain(AZ, "az1") takes out a whole availability zone). It returns the
// failed machine IDs.
func (c *Cluster) FailDomain(d Domain, instance string) []string {
	var failed []string
	for _, m := range c.Topo.Machines {
		if m.DomainID(d) == instance && m.up {
			m.up = false
			c.Net.SetDown(m.ID, true)
			failed = append(failed, m.ID)
		}
	}
	return failed
}

// Recover brings a machine back up (with its state intact — crash-recovery
// with durable state; amnesia restarts are modeled by swapping the runtime).
func (c *Cluster) Recover(machineID string) {
	if m := c.Topo.Get(machineID); m != nil {
		m.up = true
		c.Net.SetDown(machineID, false)
	}
}

// Round advances the co-simulation: deliver network traffic for the given
// virtual duration, then tick every hosted runtime on an up machine once.
func (c *Cluster) Round(netSlice simnet.Time) {
	c.Net.RunUntil(c.Net.Now() + netSlice)
	for _, id := range c.order {
		if m := c.Topo.Get(id); m != nil && m.up {
			c.hosts[id].Tick()
		}
	}
}

// RunRounds executes n rounds with the given per-round network slice.
func (c *Cluster) RunRounds(n int, netSlice simnet.Time) {
	for i := 0; i < n; i++ {
		c.Round(netSlice)
	}
}

// UpCount returns the number of up machines hosting runtimes.
func (c *Cluster) UpCount() int {
	n := 0
	for _, id := range c.order {
		if m := c.Topo.Get(id); m != nil && m.up {
			n++
		}
	}
	return n
}
