// Command benchtab regenerates every experiment table from DESIGN.md §4.
//
// Usage:
//
//	benchtab            # run all experiments
//	benchtab -exp=E2    # run one
//	benchtab -quick     # smaller parameters (CI-friendly)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hydro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all)")
	quick := flag.Bool("quick", false, "smaller parameters")
	flag.Parse()

	ran := false
	var known []string
	for _, e := range experiments.All(*quick) {
		known = append(known, e.ID)
		if *exp == "" || strings.EqualFold(*exp, e.ID) {
			fmt.Println(e.Run().Render())
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q; known: %s\n", *exp, strings.Join(known, ", "))
		os.Exit(2)
	}
}
