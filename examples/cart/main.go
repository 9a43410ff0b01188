// Command cart demonstrates the Dynamo shopping cart of §7.1 and its seal
// placement, running the compiled HydroLogic program hlang.CartSource on
// four replicas hosted on a simulated cluster. Cart updates are
// coordination-free merges, spread by anti-entropy; the client seals the
// manifest unilaterally, and each replica checks out on its own once its
// contents reach the sealed lines — a threshold on a growing count, so the
// compiler picks no coordination for any handler.
package main

import (
	"fmt"
	"sort"
	"strings"

	"hydro/internal/cluster"
	"hydro/internal/consistency"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/simnet"
	"hydro/internal/transducer"
)

func main() {
	c, err := hydrolysis.Compile(hlang.CartSource, hydrolysis.Options{})
	if err != nil {
		panic(err)
	}
	topo := cluster.NewTopology(1, 1, 4, cluster.ClassSmall)
	cl := cluster.New(topo, simnet.Config{Seed: 1, MinLatency: 50, MaxLatency: 500})
	var r []*transducer.Runtime
	for i, m := range topo.Machines {
		rt, err := c.Instantiate(m.ID, int64(i+1))
		if err != nil {
			panic(err)
		}
		cl.Host(m.ID, rt)
		r = append(r, rt)
	}
	cl.Net.AddNode("client", func(simnet.Time, simnet.Message) {})
	// send delivers one client message and lets the cluster settle.
	send := func(to *transducer.Runtime, box string, args ...any) {
		cl.Net.Send("client", to.Name, transducer.Message{Mailbox: box, Payload: args, From: "client"})
		cl.RunRounds(200, 10)
	}

	// Three replicas of one user's cart, updated divergently (the user's
	// phone and laptop hitting different datacenters).
	send(r[0], "add", "cart", "book", int64(1))
	send(r[1], "add", "cart", "pen", int64(2))
	send(r[2], "add", "cart", "book", int64(1)) // concurrent duplicate add
	fmt.Println("replica contents before any exchange:")
	for i := range r[:3] {
		fmt.Printf("  r%d: %q\n", i+1, contents(r[i]))
	}

	// The fourth replica lags: it hears only r2's state, before the
	// anti-entropy among r1..r3, whose merges converge in any order.
	send(r[1], "sync", r[3].Name)
	for _, from := range r[:3] {
		for _, to := range r[:3] {
			if from != to {
				send(from, "sync", to.Name)
			}
		}
	}
	fmt.Printf("\nafter gossip, converged contents: %q\n", contents(r[0]))

	// The client seals what it saw, unilaterally: each replica gets the
	// manifest's lines and their count.
	lines := r[0].Table("items").Tuples()
	for _, rep := range r {
		for _, l := range lines {
			send(rep, "seal", l[0], l[1], l[2], int64(len(lines)))
		}
	}
	fmt.Printf("client seals the cart: %d lines (no replica coordination)\n", len(lines))

	checkout := func(rep *transducer.Runtime) bool {
		send(rep, "checkout", "cart")
		return len(rep.Drain("shipped")) > 0
	}
	fmt.Printf("lagging replica checked out? %v (contents %q)\n", checkout(r[3]), contents(r[3]))
	send(r[0], "sync", r[3].Name)
	fmt.Printf("after catching up:        %v (contents %q)\n", checkout(r[3]), contents(r[3]))

	var mechs []string
	for name, ch := range consistency.Select(c.Program, c.Analysis) {
		mechs = append(mechs, fmt.Sprintf("%s=%s", name, ch.Mechanism))
	}
	sort.Strings(mechs)
	fmt.Printf("\nmechanisms the compiler picks: %s\n", strings.Join(mechs, ", "))
}

// contents renders a replica's items as "item=qty;...".
func contents(rt *transducer.Runtime) string {
	var parts []string
	for _, row := range rt.Table("items").Tuples() {
		parts = append(parts, fmt.Sprintf("%s=%d", row[1], row[2]))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}
