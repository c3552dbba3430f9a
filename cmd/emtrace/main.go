// Command emtrace runs an Emerald-subset program on the simulated
// heterogeneous network and exports the run's observability data: a Chrome
// trace-event JSON timeline (load it in chrome://tracing or Perfetto) with
// the per-hop MD→MI / wire / MI→MD phase breakdown, a flat JSON metrics
// dump, the structured event log as text, and a human span table.
//
// Usage:
//
//	emtrace [flags] file.em
//	emtrace faults [flags] file.em
//
// Both forms take every run-shaping flag emrun takes (core.RegisterFlags:
// network, mode, chaos plan, directory, placement policy, engine — see
// DESIGN.md "Configuration"), so any run can be traced as it was run;
// emtrace -h lists them beside the export flags. With no export flags,
// emtrace prints the span table. The faults subcommand runs the program
// under a chaos plan and prints a per-node reconciliation of injected
// faults against the protocol's recovery actions. All output is
// deterministic: the same program on the same network with the same plan
// produces identical bytes on every run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "faults" {
		sys, code := simulate(newFlagSet("emtrace faults", stderr), args[1:])
		if sys == nil {
			return code
		}
		// A run that faulted (e.g. a crash that never restarts takes its
		// threads down with it) still has a trace worth summarizing.
		printFaults(stdout, sys)
		return 0
	}
	fs := newFlagSet("emtrace", stderr)
	chromeOut := fs.String("chrome", "", "write a Chrome trace-event JSON timeline to this file")
	metricsOut := fs.String("metrics", "", "write a flat JSON metrics snapshot to this file")
	text := fs.Bool("text", false, "print the structured event log as text to stdout")
	spans := fs.Bool("spans", false, "print the migration-span table (default when no other output is selected)")
	sys, code := simulate(fs, args)
	if sys == nil {
		return code
	}
	// A run that faulted or broke an invariant exports what the recorder
	// holds, and still exits 1.
	if err := export(sys, *chromeOut, *metricsOut, *text, *spans, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "emtrace:", err)
		return 1
	}
	return code
}

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags] file.em\n", name)
		fs.PrintDefaults()
	}
	return fs
}

// simulate registers the run flags on fs beside the caller's own, parses
// args, and compiles and runs the program they name. Failures are reported
// on fs's output and returned as an exit status (0 after -h, 2 for a bad command
// line, 1 otherwise); the System is nil unless the program ran, and non-nil
// with status 1 when the run itself ended in a fault.
func simulate(fs *flag.FlagSet, args []string) (*core.System, int) {
	runFlags := core.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return nil, 2
	}
	machines, opts, err := runFlags.Resolve()
	var src []byte
	if err == nil {
		src, err = os.ReadFile(fs.Arg(0))
	}
	var sys *core.System
	if err == nil {
		sys, err = core.RunSource(string(src), machines, opts)
	}
	if err != nil {
		for _, line := range core.Diagnostics(err) {
			fmt.Fprintln(fs.Output(), "emtrace:", line)
		}
		return sys, 1
	}
	return sys, 0
}

func export(sys *core.System, chromeOut, metricsOut string, text, spans bool, stdout, stderr io.Writer) error {
	rec := sys.Recorder()
	if chromeOut != "" {
		if err := writeFile(chromeOut, func(f *os.File) error {
			return obs.WriteChromeTrace(f, rec)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "emtrace: wrote %s (%d spans, %d events)\n",
			chromeOut, len(rec.Spans()), len(rec.Events()))
	}
	if metricsOut != "" {
		snap := sys.MetricsSnapshot()
		if err := writeFile(metricsOut, func(f *os.File) error {
			return obs.WriteMetricsJSON(f, snap)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "emtrace: wrote %s\n", metricsOut)
	}
	if text {
		stdout.Write(obs.EventLog(rec))
	}
	if spans || (chromeOut == "" && metricsOut == "" && !text) {
		fmt.Fprint(stdout, obs.FormatSpans(rec))
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(stderr, "emtrace: %d events evicted from full rings (each node keeps its last obs.DefaultRingCap = %d)\n", d, obs.DefaultRingCap)
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
