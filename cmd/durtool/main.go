// Command durtool summarizes a durability directory (the changelog +
// snapshot pair internal/durable maintains for a transducer's incremental
// fixpoint): the snapshot's sequence number, relations, rows and size, the
// changelog's records and size, and any torn tail recovery would truncate.
//
// Usage:
//
//	durtool <dir>
//
// It writes nothing: a path that is not an existing directory is an error.
// Whether a node boots from the directory depends on the program it
// journals: a deployment checks that with its own program through
// durable.Open and Store.Recover.
package main

import (
	"flag"
	"fmt"
	"os"

	"hydro/internal/durable"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: durtool <dir>")
		os.Exit(2)
	}
	dir := flag.Arg(0)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		fatal(fmt.Errorf("%s is not an existing directory", dir))
	}
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "durtool:", err)
	os.Exit(1)
}
