// Command embench regenerates the paper's evaluation: Table 1 (thread
// mobility timings), Figure 2 (the thread-state specialization hierarchy),
// Figures 3/4 (bridging code), the §3.6 intra-node performance invariant,
// and the conversion-routine ablation.
//
// Usage:
//
//	embench [-out dir] [-baseline dir] [-cpuprofile file] [-memprofile file] [subcommand...]
//
// Each named subcommand (table1, fig1, fig2, fig3, intranode, conv,
// ablations, jit, auto, dir, shrink; none or "all" runs every one)
// runs once, in the order listed by -h.
//
// The table1, fig2, conv, jit, auto and dir studies additionally
// write machine-readable results (BENCH_<name>.json) into -out (default:
// the current directory) for CI and plotting scripts.
//
// With -baseline, each freshly written BENCH_*.json is compared against
// the file of the same name in the baseline directory (typically the
// repo root, where the committed baselines live); any difference outside
// the "host"-prefixed fields is an error. The simulation is deterministic,
// so an unintended behavior change shows up here even when the
// human-readable report looks plausible.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/prof"
)

// subcommand is one experiment. run returns the human-readable report and,
// for a study that writes BENCH_<name>.json, its document (nil otherwise);
// the document's Benchmark is the subcommand's name.
type subcommand struct {
	name string
	run  func() (string, *exp.BenchDoc, error)
}

// subcommands lists every experiment in presentation order.
var subcommands = []subcommand{
	{"fig1", figure1},
	{"table1", func() (string, *exp.BenchDoc, error) {
		cells, err := exp.Table1()
		if err != nil {
			return "", nil, err
		}
		return exp.FormatTable1(cells), &exp.BenchDoc{
			Unit:     "ms for two thread moves",
			Workload: "Mobile13 (13-variable fragment, 25 round trips)",
			Rows:     cells,
		}, nil
	}},
	{"fig2", func() (string, *exp.BenchDoc, error) {
		rows, err := exp.Figure2()
		if err != nil {
			return "", nil, err
		}
		return exp.FormatFigure2(rows), &exp.BenchDoc{
			Claim: "same program at every specialization level prints identical output",
			Rows:  rows,
		}, nil
	}},
	{"fig3", func() (string, *exp.BenchDoc, error) {
		s, err := exp.Figure34()
		return s, nil, err
	}},
	{"intranode", intraNode},
	{"conv", func() (string, *exp.BenchDoc, error) {
		rs, err := exp.ConversionStudy()
		if err != nil {
			return "", nil, err
		}
		return exp.FormatConversionStudy(rs), &exp.BenchDoc{Workload: "Mobile13 on SPARC<->SPARC", Rows: rs}, nil
	}},
	{"ablations", ablations},
	// jit measures the two dispatch tiers (legacy reference stepper /
	// fused superinstructions) on a compute-bound loop per ISA. Its
	// emulated-MIPS fields are host wall-clock and carry the "host"
	// prefix the gate skips.
	{"jit", func() (string, *exp.BenchDoc, error) {
		rs, desc, err := exp.JitStudy()
		if err != nil {
			return "", nil, err
		}
		return exp.FormatJit(rs), &exp.BenchDoc{
			Workload: desc,
			Claim:    "fused superinstruction dispatch outruns the reference stepper on compute-bound code with byte-identical observables",
			Rows:     rs,
		}, nil
	}},
	// auto is the adaptive-placement policy table (internal/exp auto.go):
	// four arms over one generated zipf workload.
	{"auto", func() (string, *exp.BenchDoc, error) {
		rows, desc, err := exp.AutoStudy()
		if err != nil {
			return "", nil, err
		}
		return exp.FormatAuto(rows, desc), &exp.BenchDoc{Unit: "mixed (ms, counts, bytes)", Workload: desc, Rows: rows}, nil
	}},
	// dir is the replicated-directory overhead table (internal/exp
	// dir.go): directory off/on, clean and under a replica crash/restart.
	{"dir", func() (string, *exp.BenchDoc, error) {
		rows, desc, err := exp.DirStudy()
		if err != nil {
			return "", nil, err
		}
		return exp.FormatDir(rows, desc), &exp.BenchDoc{Unit: "mixed (ms, counts, bytes)", Workload: desc, Rows: rows}, nil
	}},
	{"shrink", func() (string, *exp.BenchDoc, error) {
		rows, err := exp.Shrink(filepath.Join("examples", "programs"))
		if err != nil {
			return "", nil, err
		}
		return exp.FormatShrink(rows), nil, nil
	}},
}

// runStudy runs one subcommand, prints its report and writes its document
// to outDir; when baselineDir is set it then checks the document against
// the committed copy of the same name there.
func runStudy(s subcommand, outDir, baselineDir string) error {
	report, doc, err := s.run()
	if err != nil {
		return err
	}
	fmt.Print(report)
	if doc == nil {
		return nil
	}
	doc.Benchmark = s.name
	path, kept, err := exp.WriteBenchJSON(outDir, *doc)
	if err != nil {
		return err
	}
	// Reported on stderr so stdout stays a clean human-readable report.
	if kept {
		fmt.Fprintf(os.Stderr, "embench: kept %s (equal, host fields aside)\n", path)
	} else {
		fmt.Fprintf(os.Stderr, "embench: wrote %s\n", path)
	}
	if baselineDir == "" {
		return nil
	}
	basePath := filepath.Join(baselineDir, filepath.Base(path))
	base, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", basePath, err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := exp.CompareBenchJSON(fresh, base); err != nil {
		return fmt.Errorf("%s vs baseline %s: %w", path, basePath, err)
	}
	fmt.Fprintf(os.Stderr, "embench: %s matches baseline %s\n", path, basePath)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: embench [-out dir] [-baseline dir] [-cpuprofile file] [-memprofile file] [subcommand...]")
	fmt.Fprint(os.Stderr, "subcommands: all (default)")
	for _, s := range subcommands {
		fmt.Fprint(os.Stderr, ", ", s.name)
	}
	fmt.Fprintln(os.Stderr)
}

func main() {
	outDir := flag.String("out", ".", "directory for BENCH_*.json result files")
	baselineDir := flag.String("baseline", "",
		"directory of committed BENCH_*.json baselines to compare against (any difference outside host* fields fails)")
	profile := prof.Register(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	what := map[string]bool{}
	for _, name := range flag.Args() {
		what[name] = true
	}
	all := len(what) == 0 || what["all"]
	for name := range what {
		known := name == "all"
		for _, s := range subcommands {
			known = known || name == s.name
		}
		if !known {
			fmt.Fprintf(os.Stderr, "embench: unknown subcommand %q\n", name)
			usage()
			os.Exit(1)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "embench:", err)
		os.Exit(1)
	}
	stopProfile := profile.Start()
	for _, s := range subcommands {
		if !all && !what[s.name] {
			continue
		}
		if err := runStudy(s, *outDir, *baselineDir); err != nil {
			stopProfile()
			fmt.Fprintf(os.Stderr, "embench %s: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	stopProfile()
}

func ablations() (string, *exp.BenchDoc, error) {
	bs, err := exp.BusStopDensity()
	if err != nil {
		return "", nil, err
	}
	homes, err := exp.RegisterHomes()
	if err != nil {
		return "", nil, err
	}
	return exp.FormatAblations(bs, homes), nil, nil
}

func figure1() (string, *exp.BenchDoc, error) {
	var b strings.Builder
	b.WriteString("Figure 1: a network of heterogeneous nodes\n")
	for i, m := range core.Figure1Network() {
		fmt.Fprintf(&b, "  node%d: %-18s (%s, %.1f effective MHz)\n", i, m.Name, arch.ID(m.Arch), m.MHz)
	}
	b.WriteString("  connected by a shared 10 Mbit/s Ethernet\n")
	return b.String(), nil, nil
}

func intraNode() (string, *exp.BenchDoc, error) {
	var b strings.Builder
	b.WriteString("§3.6 intra-node performance invariant (compute phase, ms):\n")
	fmt.Fprintf(&b, "%-20s %10s %10s %14s %6s\n", "machine", "local", "migrated", "original-sys", "ok")
	for _, m := range []netsim.MachineModel{
		netsim.VAXstation2000, netsim.Sun3_100, netsim.HP9000_433s, netsim.SPARCstationSLC,
	} {
		r, err := exp.IntraNode(m)
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&b, "%-20s %10.1f %10.1f %14.1f %6v\n",
			r.Arch, r.LocalMS, r.MigratedMS, r.OriginalSysMS, r.EnhancedMatches)
	}
	b.WriteString("migrated threads run at native speed, identical to the original system\n")
	return b.String(), nil, nil
}
