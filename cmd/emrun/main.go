// Command emrun compiles an Emerald-subset program and runs it on a
// simulated network of heterogeneous workstations.
//
// Usage:
//
//	emrun [flags] file.em
//
// Run emrun -h for the flags: the run-shaping ones are core.RegisterFlags'
// (the same set emtrace takes; DESIGN.md "Configuration"), the rest select
// what emrun prints beside the program's output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/prof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlags := core.RegisterFlags(fs)
	trace := fs.Bool("trace", false, "print kernel event trace")
	stats := fs.Bool("stats", false, "print per-node statistics")
	autoLog := fs.Bool("auto-log", false, "print the placement decision log after the run")
	profile := prof.Register(fs)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: emrun [flags] file.em")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	fail := func(code int, err error) int {
		for _, line := range core.Diagnostics(err) {
			fmt.Fprintln(stderr, "emrun:", line)
		}
		return code
	}
	machines, opts, err := runFlags.Resolve()
	if err != nil {
		return fail(2, err)
	}
	if *trace {
		opts.Trace = func(s string) { fmt.Fprintln(stderr, s) }
	}
	stopProfile := profile.Start()
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(1, err)
	}
	prog, err := core.Compile(string(src))
	if err != nil {
		return fail(1, err)
	}
	sys, err := core.NewSystem(prog, machines, opts)
	if err != nil {
		return fail(1, err)
	}
	runErr := sys.Run()
	stopProfile()
	for _, line := range sys.Lines() {
		fmt.Fprintln(stdout, line)
	}
	if *autoLog {
		for _, l := range sys.AutoDecisionLog() {
			fmt.Fprintln(stderr, "auto:", l)
		}
	}
	if *stats {
		fmt.Fprintf(stderr, "\nsimulated time: %.1f ms\n", sys.ElapsedMS())
		for _, n := range sys.Cluster.Nodes {
			fmt.Fprintf(stderr, "node%d %-18s [%s] instrs=%d msgs=%d/%d migrations=%d\n",
				n.ID, n.Model.Name, n.Spec.Name, n.Instrs, n.MsgsSent, n.MsgsRecv, n.Migrations)
		}
		st := sys.Cluster.ConvStats()
		fmt.Fprintf(stderr, "conversion calls=%d values=%d wire payload=%d bytes\n",
			st.Calls, st.Values, sys.Cluster.Net.PayloadLen)
	}
	if runErr != nil {
		return fail(1, runErr)
	}
	if blocked := sys.Cluster.BlockedThreads(); len(blocked) > 0 {
		fmt.Fprintln(stderr, "emrun: blocked threads at exit:")
		for _, b := range blocked {
			fmt.Fprintln(stderr, "  ", b)
		}
	}
	return 0
}
