// Command durtool inspects and verifies a durability directory (the
// changelog + snapshot pair internal/durable maintains for a transducer's
// incremental fixpoint).
//
// Usage:
//
//	durtool <dir>             # summarize snapshot and changelog
//	durtool -verify <dir>     # additionally replay the directory against
//	                          # the built-in TC program and report the
//	                          # recovered relation sizes
//
// Inspection is read-only. -verify opens the directory exactly like a
// recovering node would (torn tails truncated, aborted final records
// dropped), so a clean -verify run means a node will boot from this
// directory. It is only meaningful for directories journaling the demo
// transitive-closure program; real deployments verify with their own
// program via durable.Open + Recover.
package main

import (
	"flag"
	"fmt"
	"os"

	"hydro/internal/datalog"
	"hydro/internal/durable"
)

func main() {
	verify := flag.Bool("verify", false, "replay the directory with the demo TC program and report recovered state")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: durtool [-verify] <dir>")
		os.Exit(2)
	}
	dir := flag.Arg(0)
	fs, err := durable.DirFS(dir)
	if err != nil {
		fatal(err)
	}
	info, err := durable.Inspect(fs)
	if err != nil {
		fatal(err)
	}
	if info.HasSnapshot {
		fmt.Printf("snapshot: seq %d, %d relations, %d rows, %d bytes\n",
			info.SnapshotSeq, info.SnapshotRelations, info.SnapshotRows, info.SnapshotBytes)
	} else {
		fmt.Println("snapshot: none")
	}
	fmt.Printf("changelog: base seq %d, %d records through seq %d, %d bytes\n",
		info.LogBaseSeq, info.LogRecords, info.LogLastSeq, info.LogBytes)
	if info.TornBytes > 0 {
		fmt.Printf("changelog: %d torn trailing bytes (recovery will truncate)\n", info.TornBytes)
	}
	if !*verify {
		return
	}

	p, err := datalog.NewProgram(
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}},
			Body: []datalog.Literal{{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}}},
		},
		datalog.Rule{
			Head: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("z")}},
			Body: []datalog.Literal{
				{Atom: datalog.Atom{Pred: "path", Args: []datalog.Term{datalog.V("x"), datalog.V("y")}}},
				{Atom: datalog.Atom{Pred: "edge", Args: []datalog.Term{datalog.V("y"), datalog.V("z")}}},
			},
		},
	)
	if err != nil {
		fatal(err)
	}
	store, err := durable.Open(durable.Options{FS: fs})
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	inc, err := store.Recover(p, datalog.NewDatabase())
	if err != nil {
		fatal(fmt.Errorf("recovery failed: %w", err))
	}
	fmt.Printf("recovered: seq %d (snapshot %d + %d replayed records)\n",
		store.LastSeq(), store.SnapshotSeq(), store.LastSeq()-store.SnapshotSeq())
	db := inc.DB()
	for _, name := range db.Names() {
		fmt.Printf("  %-12s %d tuples\n", name, db.Get(name).Len())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "durtool:", err)
	os.Exit(1)
}
