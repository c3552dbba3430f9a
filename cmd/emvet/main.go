// Command emvet is the cross-ISA mobility-soundness analyzer: it compiles
// each Emerald-subset source file for every simulated architecture and runs
// every static-analysis pass in internal/vet over the result — bus-stop
// isomorphism across ISAs, stop-PC alignment, per-stop liveness consistency,
// template coverage, the IR dataflow lints, and the whole-program points-to
// passes (ptr-escape, dead-ptr-at-stop, immobile-reach).
//
// Usage:
//
//	emvet [-severity error|warning|info] [-passes] [-graph] file.em...
//
//	-severity  lowest severity that makes the exit status nonzero
//	           (default warning)
//	-passes    list the passes with their descriptions and exit
//	-list      alias for -passes
//	-graph     print the points-to object-graph report (allocation sites,
//	           call graph, escapes, pinned reachability, group-migration
//	           cohorts) instead of diagnostics
//
// Findings identical across architectures are printed once, with the
// architecture list merged into one line.
//
// The exit status is 0 when every file compiles and no finding reaches the
// threshold, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/pta"
	"repro/internal/vet"
)

func main() {
	sevName := flag.String("severity", "warning", "exit nonzero at or above this severity (info, warning, error)")
	passes := flag.Bool("passes", false, "list passes with descriptions and exit")
	list := flag.Bool("list", false, "alias for -passes")
	graph := flag.Bool("graph", false, "print the points-to object-graph report instead of diagnostics")
	flag.Parse()
	if *passes || *list {
		for _, p := range vet.Passes() {
			fmt.Printf("%-22s %s\n", p.Name, p.Doc)
		}
		return
	}
	threshold, err := vet.ParseSeverity(*sevName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emvet:", err)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: emvet [-severity s] [-passes] [-graph] file.em...")
		os.Exit(2)
	}
	fail := false
	for _, file := range flag.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "emvet:", err)
			fail = true
			continue
		}
		prog, err := core.Compile(string(src))
		if err != nil {
			for _, line := range core.Diagnostics(err) {
				fmt.Fprintf(os.Stderr, "%s: %s\n", file, line)
			}
			fail = true
			continue
		}
		if *graph {
			r, err := pta.Analyze(prog.IR)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: pta: %v\n", file, err)
				fail = true
				continue
			}
			fmt.Printf("== %s\n%s", file, r.Report())
			continue
		}
		diags := vet.Dedup(vet.Check(prog))
		for _, d := range diags {
			fmt.Printf("%s: %s\n", file, d)
		}
		if m, ok := vet.MaxSeverity(diags); ok && m >= threshold {
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}
