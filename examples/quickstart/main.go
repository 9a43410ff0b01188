// Command quickstart runs the paper's COVID-19 tracker (Fig 2/3) end to
// end on a single transducer: it compiles the HydroLogic source, prints the
// monotonicity analysis and facet choices the compiler made, then drives
// the application and shows the resulting state and alerts.
package main

import (
	"fmt"

	"hydro"
	"hydro/internal/consistency"
	"hydro/internal/transducer"
)

func main() {
	c := hydro.MustCompile(hydro.CovidSource, hydro.Options{
		UDFs: map[string]hydro.UDF{
			// Stand-in for the paper's black-box covid_predict model.
			"covid_predict": func(args []any) any {
				return float64(args[0].(int64)%100) / 100.0
			},
		},
	})

	fmt.Println("=== Monotonicity analysis (the §8.2 typechecker) ===")
	fmt.Print(c.Analysis.Report())

	fmt.Println("\n=== Consistency mechanism choices (§7.2) ===")
	fmt.Print(consistency.Report(c.Choices))

	rt, err := c.Instantiate("node1", 42)
	if err != nil {
		panic(err)
	}

	fmt.Println("\n=== Running the application ===")
	// A small social graph: 1-2-3 chained, 4 isolated.
	rt.Inject("add_person", hydro.Tuple{int64(1), "us"})
	rt.Inject("add_person", hydro.Tuple{int64(2), "us"})
	rt.Inject("add_person", hydro.Tuple{int64(3), "fr"})
	rt.Inject("add_person", hydro.Tuple{int64(4), "in"})
	rt.Inject("add_contact", hydro.Tuple{int64(1), int64(2)})
	rt.Inject("add_contact", hydro.Tuple{int64(2), int64(3)})
	rt.RunUntilIdle(50)

	// Person 1 is diagnosed: 2 and 3 must be alerted transitively.
	rt.Inject("diagnosed", hydro.Tuple{int64(1)})
	rt.RunUntilIdle(50)

	fmt.Println("people:")
	for _, row := range rt.Table("people").Tuples() {
		fmt.Printf("  pid=%v country=%-3v covid=%-5v vaccinated=%v\n", row[0], row[1], row[2], row[3])
	}
	fmt.Println("alerts sent to:")
	for _, m := range rt.Peek("alert") {
		fmt.Printf("  pid=%v\n", m.Payload[0])
	}

	// Vaccinate person 2 (the serializable, invariant-guarded handler).
	rt.Inject("vaccinate", hydro.Tuple{int64(2)})
	rt.RunUntilIdle(50)
	fmt.Printf("vaccine_count after one dose: %v\n", rt.Var("vaccine_count"))

	// Ask the ML stub for person 3's likelihood.
	id := rt.Inject("likelihood", hydro.Tuple{int64(3)})
	rt.RunUntilIdle(50)
	for _, m := range rt.Drain(transducer.ResponseMailbox("likelihood")) {
		if m.Payload[0] == id {
			fmt.Printf("likelihood(3) = %v\n", m.Payload[1])
		}
	}
	fmt.Printf("\nruntime stats: %+v\n", rt.Stats())
}
