// Command actors demonstrates Appendix A.1: the Actor model as the
// compiled HydroLogic program hlang.ActorsSource. A supervisor spawns one
// worker per number (spawning is a merge into the actor table) and a query
// sums the workers' squares. Then an approver does the mid-method
// synchronous receive the appendix highlights: it parks its prepared
// request as a waiting row, chatter to it buffers as inbox rows it has not
// heard, and the decision resumes from the parked row.
package main

import (
	"fmt"
	"math/rand"

	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/transducer"
)

func main() {
	c, err := hydrolysis.Compile(hlang.ActorsSource, hydrolysis.Options{})
	if err != nil {
		panic(err)
	}
	rt, err := c.Instantiate("node1", 7)
	if err != nil {
		panic(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 })

	for i := int64(1); i <= 5; i++ {
		rt.Inject("task", datalog.Tuple{fmt.Sprint("worker-", i), i})
	}
	rt.RunUntilIdle(50)
	fmt.Printf("sum of squares 1..5 via actors: %v (from %d workers)\n",
		rt.Table("total").Tuples()[0][0], rt.Table("squares").Len())

	rt.Inject("request", datalog.Tuple{"approver", "purchase-order-17"})
	rt.RunUntilIdle(20)
	fmt.Printf("approver: %s, now waiting for decision...\n", column(rt, "waiting"))

	// Chatter arrives while the approver is blocked and buffers.
	rt.Inject("chat", datalog.Tuple{"approver", "unrelated-chatter"})
	rt.RunUntilIdle(20)
	fmt.Printf("outcome while waiting: %q (chatter buffered: %d in inbox, %d heard)\n",
		column(rt, "outcome"), rt.Table("inbox").Len(), rt.Table("heard").Len())

	rt.Inject("decide", datalog.Tuple{"approver", "APPROVED"})
	rt.RunUntilIdle(20)
	fmt.Printf("final outcome: %q (chatter heard: %d)\n", column(rt, "outcome"), rt.Table("heard").Len())
	fmt.Printf("messages handled by the actor program: %d\n", rt.Stats().Handled)
}

// column returns the second column of a table's first row, "" when empty.
func column(rt *transducer.Runtime, table string) any {
	rows := rt.Table(table).Tuples()
	if len(rows) == 0 {
		return ""
	}
	return rows[0][1]
}
