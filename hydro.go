// Package hydro is the public API of this Go reproduction of "New
// Directions in Cloud Programming" (CIDR '21). It re-exports the stable
// surface of the internal packages:
//
//   - Compile / MustCompile: HydroLogic source → compiled program
//     (datalog queries, monotonicity analysis, handler closures).
//   - Compiled.Instantiate: a runnable single-node transducer, its
//     queries maintained across ticks and ready for a durability sink.
//   - Analyze: the monotonicity/CALM typechecker on its own.
//
// Quickstart:
//
//	c, err := hydro.Compile(hydro.CovidSource, hydro.Options{UDFs: ...})
//	rt, _ := c.Instantiate("node1", 42)
//	rt.Inject("add_person", hydro.Tuple{int64(1), "us"})
//	rt.RunUntilIdle(100)
//
// See examples/ for full programs and DESIGN.md for the system map.
package hydro

import (
	"hydro/internal/datalog"
	"hydro/internal/hlang"
	"hydro/internal/hydrolysis"
	"hydro/internal/transducer"
)

// Compiled is a compiled HydroLogic program: see hydrolysis.Compiled.
type Compiled = hydrolysis.Compiled

// Options configures compilation (UDF implementations).
type Options = hydrolysis.Options

// UDF is a black-box function implementation supplied at compile time.
type UDF = hydrolysis.UDF

// Program is a parsed HydroLogic program (the IR of §3).
type Program = hlang.Program

// Analysis is the monotonicity/CALM analysis result (§8.2).
type Analysis = hlang.Analysis

// Runtime is a single-node transducer event loop (§3.1).
type Runtime = transducer.Runtime

// Tuple is one fact/message payload.
type Tuple = datalog.Tuple

// Message is a mailbox entry.
type Message = transducer.Message

// CovidSource is the paper's running example (Fig 2/3) in HydroLogic.
const CovidSource = hlang.CovidSource

// Compile parses, checks, analyzes and compiles HydroLogic source.
func Compile(src string, opts Options) (*Compiled, error) {
	return hydrolysis.Compile(src, opts)
}

// MustCompile is Compile, panicking on error (for examples and tests over
// known-good sources).
func MustCompile(src string, opts Options) *Compiled {
	c, err := Compile(src, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Parse parses and checks HydroLogic source without compiling it.
func Parse(src string) (*Program, error) { return hlang.Parse(src) }

// Analyze runs the monotonicity typechecker and dataflow analysis.
func Analyze(p *Program) *Analysis { return hlang.Analyze(p) }
