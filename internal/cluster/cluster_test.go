package cluster

import (
	"math/rand"
	"strings"
	"testing"

	"hydro/internal/datalog"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

func TestTopologyShape(t *testing.T) {
	topo := NewTopology(3, 2, 4, ClassSmall)
	if len(topo.Machines) != 24 {
		t.Fatalf("machines = %d, want 24", len(topo.Machines))
	}
	azs, racks := map[string]bool{}, map[string]bool{}
	for _, m := range topo.Machines {
		azs[m.DomainID(AZ)], racks[m.DomainID(Rack)] = true, true
	}
	if len(azs) != 3 || len(racks) != 6 {
		t.Fatalf("%d AZs and %d racks, want 3 and 6", len(azs), len(racks))
	}
	m := topo.Get("az2-r1-m3")
	if m == nil || m.AZ != "az2" || m.Rack != "az2-r1" || m.DomainID(DC) != "az2-dc" {
		t.Fatalf("machine lookup broken: %+v", m)
	}
}

// TestSpreadAcross pins the exact machines placement picks, so every
// deployment keeps its replicas' IDs. 11 of 24 is the case a
// branch-and-bound search exhausted its node budget on.
func TestSpreadAcross(t *testing.T) {
	cases := []struct {
		azs, racks, machines, n int
		down                    string // a machine failed before placing
		want                    string
	}{
		{3, 2, 2, 1, "", "az3-r2-m2"},
		{3, 2, 2, 2, "", "az2-r2-m2 az3-r2-m2"},
		{3, 2, 2, 3, "", "az1-r2-m2 az2-r2-m2 az3-r2-m2"},
		{3, 2, 2, 4, "", "az2-r2-m1 az2-r2-m2 az3-r2-m1 az3-r2-m2"},
		{3, 2, 2, 5, "", "az1-r2-m2 az2-r2-m1 az2-r2-m2 az3-r2-m1 az3-r2-m2"},
		{3, 2, 2, 6, "", "az1-r2-m1 az1-r2-m2 az2-r2-m1 az2-r2-m2 az3-r2-m1 az3-r2-m2"},
		{3, 1, 1, 2, "", "az2-r1-m1 az3-r1-m1"},
		{3, 1, 1, 3, "", "az1-r1-m1 az2-r1-m1 az3-r1-m1"},
		{1, 1, 4, 1, "", "az1-r1-m4"},
		{1, 1, 4, 2, "", "az1-r1-m3 az1-r1-m4"},
		{1, 1, 4, 3, "", "az1-r1-m2 az1-r1-m3 az1-r1-m4"},
		{1, 1, 4, 4, "", "az1-r1-m1 az1-r1-m2 az1-r1-m3 az1-r1-m4"},
		{2, 2, 2, 3, "", "az1-r2-m2 az2-r2-m1 az2-r2-m2"},
		{3, 2, 2, 2, "az1-r1-m1", "az2-r2-m2 az3-r2-m2"},
		{3, 2, 2, 3, "az3-r2-m2", "az1-r2-m2 az2-r2-m2 az3-r2-m1"},
		{3, 2, 2, 4, "az3-r2-m2", "az2-r2-m1 az2-r2-m2 az3-r1-m2 az3-r2-m1"},
		{3, 2, 4, 10, "", "az1-r2-m3 az1-r2-m4 az2-r2-m1 az2-r2-m2 az2-r2-m3 az2-r2-m4 az3-r2-m1 az3-r2-m2 az3-r2-m3 az3-r2-m4"},
		{3, 2, 4, 11, "", "az1-r2-m2 az1-r2-m3 az1-r2-m4 az2-r2-m1 az2-r2-m2 az2-r2-m3 az2-r2-m4 az3-r2-m1 az3-r2-m2 az3-r2-m3 az3-r2-m4"},
	}
	for _, tc := range cases {
		topo := NewTopology(tc.azs, tc.racks, tc.machines, ClassSmall)
		if tc.down != "" {
			New(topo, simnet.DefaultConfig(1)).FailDomain(VM, tc.down)
		}
		got, err := topo.SpreadAcross(AZ, tc.n)
		if err != nil || strings.Join(got, " ") != tc.want {
			t.Errorf("(%d,%d,%d) n=%d down=%q: got %v, %v; want %s",
				tc.azs, tc.racks, tc.machines, tc.n, tc.down, got, err, tc.want)
		}
	}
	topo := NewTopology(1, 1, 4, ClassSmall)
	for _, n := range []int{0, 5} {
		if got, err := topo.SpreadAcross(AZ, n); err == nil {
			t.Errorf("n=%d on 4 machines: got %v, want an error", n, got)
		}
	}
}

func TestSpreadSkipsDownMachines(t *testing.T) {
	topo := NewTopology(2, 1, 1, ClassSmall)
	c := New(topo, simnet.DefaultConfig(1))
	c.FailDomain(AZ, "az1")
	if _, err := topo.SpreadAcross(AZ, 2); err == nil {
		t.Fatal("down AZ should be unavailable for placement")
	}
	if ms, err := topo.SpreadAcross(AZ, 1); err != nil || ms[0] != "az2-r1-m1" {
		t.Fatalf("placement = %v, %v", ms, err)
	}
}

func fixedDelay(r *rand.Rand) int { return 1 }

func TestHostedRuntimesExchangeMessages(t *testing.T) {
	topo := NewTopology(2, 1, 1, ClassSmall)
	c := New(topo, simnet.Config{Seed: 1, MinLatency: 10, MaxLatency: 10})

	a := transducer.New("az1-r1-m1", 1)
	a.SetDelay(fixedDelay)
	b := transducer.New("az2-r1-m1", 2)
	b.SetDelay(fixedDelay)

	var got []transducer.Message
	a.RegisterHandler("kick", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Send("az2-r1-m1/work", datalog.Tuple{"payload"})
	})
	b.RegisterHandler("work", func(tx *transducer.Tx, msg transducer.Message) {
		got = append(got, msg)
	})
	c.Host("az1-r1-m1", a)
	c.Host("az2-r1-m1", b)

	a.Inject("kick", datalog.Tuple{})
	c.RunRounds(6, 100)
	if len(got) != 1 || got[0].Payload[0] != "payload" {
		t.Fatalf("cross-node message = %v", got)
	}
	if got[0].From != "az1-r1-m1" {
		t.Fatalf("sender identity lost: %q", got[0].From)
	}
}

func TestFailDomainStopsTraffic(t *testing.T) {
	topo := NewTopology(2, 1, 2, ClassSmall)
	c := New(topo, simnet.Config{Seed: 1, MinLatency: 10, MaxLatency: 10})

	sender := transducer.New("az1-r1-m1", 1)
	sender.SetDelay(fixedDelay)
	receiver := transducer.New("az2-r1-m1", 2)
	receiver.SetDelay(fixedDelay)
	var got int
	sender.RegisterHandler("kick", func(tx *transducer.Tx, msg transducer.Message) {
		tx.Send("az2-r1-m1/work", datalog.Tuple{})
	})
	receiver.RegisterHandler("work", func(tx *transducer.Tx, msg transducer.Message) { got++ })
	c.Host("az1-r1-m1", sender)
	c.Host("az2-r1-m1", receiver)

	failed := c.FailDomain(AZ, "az2")
	if len(failed) != 2 {
		t.Fatalf("failed = %v", failed)
	}
	sender.Inject("kick", datalog.Tuple{})
	c.RunRounds(6, 100)
	if got != 0 {
		t.Fatal("failed AZ received traffic")
	}
	if c.UpCount() != 1 {
		t.Fatalf("up hosts = %d", c.UpCount())
	}
	// Recovery restores delivery for *new* messages.
	c.Recover("az2-r1-m1")
	sender.Inject("kick", datalog.Tuple{})
	c.RunRounds(6, 100)
	if got != 1 {
		t.Fatalf("recovered machine got %d messages, want 1", got)
	}
}
