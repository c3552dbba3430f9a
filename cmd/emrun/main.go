// Command emrun compiles an Emerald-subset program and runs it on a
// simulated network of heterogeneous workstations.
//
// Usage:
//
//	emrun [flags] file.em
//
// Run emrun -h for the flags: the run-shaping ones are core.RegisterFlags'
// (DESIGN.md "Configuration"), the rest select what emrun reports beside
// the program's output. The reports go to stderr: -trace the live event
// stream, -stats per-node counts, -auto-log the placement decisions,
// -spans the migration-span table, -faults the fault and recovery counters
// of the metrics registry. -chrome writes a Chrome trace-event timeline
// (load it in chrome://tracing or Perfetto) and -metrics a JSON metrics
// snapshot. A run that faults still reports and exports, then exits 1.
// All output is deterministic: the same program on the same network with
// the same plan produces identical bytes on every run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
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
	spans := fs.Bool("spans", false, "print the migration-span table after the run")
	faults := fs.Bool("faults", false, "print the fault and recovery counters of the metrics registry after the run")
	chromeOut := fs.String("chrome", "", "write a Chrome trace-event JSON timeline to this file")
	metricsOut := fs.String("metrics", "", "write a flat JSON metrics snapshot to this file")
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
		for _, l := range sys.Cluster.AutoDecisionLog() {
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
	if *spans {
		fmt.Fprint(stderr, obs.FormatSpans(sys.Recorder()))
	}
	if *faults {
		printFaults(stderr, sys)
	}
	if err := writeFile(*chromeOut, func(w io.Writer) error {
		return obs.WriteChromeTrace(w, sys.Recorder())
	}); err != nil {
		return fail(1, err)
	}
	if err := writeFile(*metricsOut, func(w io.Writer) error {
		return obs.WriteMetricsJSON(w, sys.MetricsSnapshot())
	}); err != nil {
		return fail(1, err)
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

// writeFile creates path and fills it with write; an empty path writes
// nothing.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// faultSeries are the node-labelled counters -faults prints per node and
// totals. The registry keeps no restart or recovery count, so none prints.
var faultSeries = []string{"retransmits", "move_commits", "move_aborts",
	"move_dup_drops", "node_crashes", "node_suspects", "faults"}

// printFaults prints the run's fault and recovery counters as the metrics
// registry holds them — the whole run, whatever the event rings evicted:
// faultSeries per node and in total, then the two families that carry no
// node label (the injector's chaos_injected{kind}, the link layer's
// link_drops{reason}) cluster-wide.
func printFaults(w io.Writer, sys *core.System) {
	reg := sys.Recorder().Metrics()
	fmt.Fprintf(w, "fault and recovery counters of the metrics registry (%.1f ms simulated)\n", sys.ElapsedMS())
	total := make([]uint64, len(faultSeries))
	for _, n := range sys.Cluster.Nodes {
		fmt.Fprintf(w, "node%d %-18s [%s]:", n.ID, n.Model.Name, n.Spec.Name)
		labels := obs.NodeLabels(n.ID, n.Spec.ID.String())
		for i, name := range faultSeries {
			v := reg.Counter(name, labels)
			total[i] += v
			fmt.Fprintf(w, " %s=%d", name, v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "all nodes:")
	for i, name := range faultSeries {
		fmt.Fprintf(w, " %s=%d", name, total[i])
	}
	fmt.Fprintln(w)
	for _, family := range []string{"chaos_injected", "link_drops"} {
		fmt.Fprintf(w, "%s, cluster-wide:", family)
		points := reg.CountersPrefix(family)
		if len(points) == 0 {
			fmt.Fprint(w, " none")
		}
		for _, p := range points {
			_, label, _ := strings.Cut(p.Labels, "=")
			fmt.Fprintf(w, " %s=%d", label, p.Value)
		}
		fmt.Fprintln(w)
	}
}
