// Command futures demonstrates Appendix A.2: Ray-style promises and futures
// as the compiled HydroLogic program hlang.FuturesSource. Four promises
// launch, local work proceeds while they execute, and ray.get-style
// resolution drives the event loop until every future is resolved. Lazy
// kickoff, the alternate semantics the appendix mentions, parks calls in a
// table until a get demands them.
package main

import (
	"fmt"
	"math/rand"

	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
)

func main() {
	c, err := hydrolysis.Compile(hlang.FuturesSource, hydrolysis.Options{UDFs: map[string]hydrolysis.UDF{
		"f": func(args []any) any { return args[0].(int64) * args[0].(int64) },
	}})
	if err != nil {
		panic(err)
	}
	rt, err := c.Instantiate("node1", 9)
	if err != nil {
		panic(err)
	}
	rt.SetDelay(func(r *rand.Rand) int { return 1 + r.Intn(2) })

	// futures = [f.remote(i) for i in range(4)]
	for i := int64(0); i < 4; i++ {
		rt.Inject("remote", datalog.Tuple{i, i})
	}

	// x = g() — local work runs while the promises execute.
	x := 0
	for i := 1; i <= 100; i++ {
		x += i
	}
	fmt.Printf("local g() finished first: x = %d\n", x)
	fmt.Printf("futures resolved before get? %v\n", rt.Table("resolved").Len() > 0)

	// print(ray.get(futures))
	rt.RunUntilIdle(100)
	results := make([]any, 4)
	for _, row := range rt.Table("resolved").Tuples() {
		results[row[0].(int64)] = row[1]
	}
	fmt.Printf("ray.get(futures) = %v\n", results)

	// Lazy kickoff: promises wait in a table until demanded.
	lazy, err := c.Instantiate("node2", 10)
	if err != nil {
		panic(err)
	}
	lazy.SetDelay(func(r *rand.Rand) int { return 1 })
	lazy.Inject("defer", datalog.Tuple{int64(1), int64(7)})
	lazy.Inject("defer", datalog.Tuple{int64(2), int64(8)})
	lazy.RunUntilIdle(20)
	fmt.Printf("\nlazy engine launched %d of 2 promises before demand\n", lazy.Table("result").Len())
	lazy.Inject("get", datalog.Tuple{int64(1)})
	lazy.RunUntilIdle(20)
	fmt.Printf("after demanding the first: launched=%d, value=%v\n",
		lazy.Table("result").Len(), lazy.Table("resolved").Tuples()[0][1])
}
