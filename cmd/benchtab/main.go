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

	scale := 1
	if *quick {
		scale = 4
	}
	runs := []struct {
		id  string
		run func() experiments.Table
	}{
		{"E1", func() experiments.Table { return experiments.RunE1(2000 / scale) }},
		{"E2", func() experiments.Table { return experiments.RunE2(80 / scale) }},
		{"E4", func() experiments.Table { return experiments.RunE4(40 / scale) }},
		{"E5", func() experiments.Table { return experiments.RunE5(20/scale + 1) }},
		{"E5b", func() experiments.Table { return experiments.RunE5Mechanisms() }},
		{"E7", func() experiments.Table { return experiments.RunE7([]int{4, 16, 64}) }},
		{"E8", func() experiments.Table { return experiments.RunE8([]int{32, 64, 128}) }},
		{"E9", func() experiments.Table { return experiments.RunE9([]int{1, 2, 3, 5}, 80/scale) }},
		{"E10", func() experiments.Table { return experiments.RunE10(20 / scale) }},
		{"E11", func() experiments.Table { return experiments.RunE11() }},
		{"E12", func() experiments.Table { return experiments.RunE12(1000 / scale) }},
		{"E13", func() experiments.Table { return experiments.RunE13(8/scale+1, 400/scale) }},
		{"E14", func() experiments.Table { return experiments.RunE14(12 / scale) }},
	}
	ran := false
	for _, r := range runs {
		if *exp != "" && !strings.EqualFold(*exp, r.id) {
			continue
		}
		fmt.Println(r.run().Render())
		ran = true
	}
	if !ran {
		known := make([]string, len(runs))
		for i, r := range runs {
			known[i] = r.id
		}
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q; known: %s\n", *exp, strings.Join(known, ", "))
		os.Exit(2)
	}
}
