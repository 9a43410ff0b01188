// Command hydroc is the Hydrolysis compiler front end: it parses a
// HydroLogic source file, runs semantic checks and the monotonicity
// typechecker, and prints the compilation artifacts per facet — the
// human-readable intermediate output the paper's "evolutionary" story
// depends on (programmers inspect and hand-tune what the compiler decided).
//
// Usage:
//
//	hydroc file.hl        # compile a file
//	hydroc -covid         # compile the built-in COVID example
package main

import (
	"flag"
	"fmt"
	"os"

	"hydro/internal/consistency"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
)

func main() {
	covid := flag.Bool("covid", false, "compile the built-in COVID example")
	format := flag.Bool("fmt", false, "print the canonical formatting of the program and exit")
	flag.Parse()

	var src string
	switch {
	case *covid:
		src = hlang.CovidSource
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: hydroc [-covid] [file.hl]")
		os.Exit(2)
	}

	// CompileProgram checks the program; -fmt, which stops before it, here.
	prog, err := hlang.ParseOnly(src)
	if err == nil && *format {
		err = hlang.Check(prog)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compile error: %v\n", err)
		os.Exit(1)
	}
	if *format {
		fmt.Print(hlang.Format(prog))
		return
	}
	// Stub every declared UDF so facet compilation can proceed; codegen
	// for real deployments supplies implementations.
	udfs := map[string]hydrolysis.UDF{}
	for _, u := range prog.UDFs {
		udfs[u.Name] = func(args []any) any { return nil }
	}
	c, err := hydrolysis.CompileProgram(prog, hydrolysis.Options{UDFs: udfs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "compile error: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("program: %d tables, %d vars, %d queries, %d handlers, %d udfs\n\n",
		len(prog.Tables), len(prog.Vars), len(prog.Queries), len(prog.Handlers), len(prog.UDFs))

	fmt.Println("— P: program semantics (datalog rules) —")
	for _, r := range c.Queries.Rules {
		fmt.Println("  " + r.String())
	}

	fmt.Println("\n— monotonicity analysis (§8.2) —")
	fmt.Print(indent(c.Analysis.Report()))

	fmt.Println("\n— C: consistency mechanisms (§7.2) —")
	fmt.Print(indent(consistency.Report(consistency.Select(c.Program, c.Analysis))))
	issues := consistency.CheckMeta(c.Program, c.Analysis)
	if len(issues) == 0 {
		fmt.Println("  metaconsistency: no downgrade paths")
	}
	for _, m := range issues {
		fmt.Println("  metaconsistency: " + m.String())
	}

	fmt.Println("\n— A: availability specs (§6) —")
	for _, h := range prog.Handlers {
		s := prog.AvailabilityFor(h.Name)
		fmt.Printf("  %-14s tolerate %d failures across %s domains\n", h.Name, s.Failures, s.Domain)
	}

	fmt.Println("\n— T: optimization targets (§9) —")
	for _, h := range prog.Handlers {
		s := prog.TargetFor(h.Name)
		fmt.Printf("  %-14s latency≤%.0fms cost≤%.2f processor=%s\n",
			h.Name, s.LatencyMs, s.Cost, orDefault(s.Processor, "any"))
	}
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}
