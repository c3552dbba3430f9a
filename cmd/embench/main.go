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
// ablations, par, jit, auto, dir, shrink; none or "all" runs every one)
// runs once, in the order listed by -h.
//
// The table1, fig2 and conv experiments additionally write machine-readable
// results (BENCH_table1.json, BENCH_fig2.json, BENCH_conv.json) into -out
// (default: the current directory) for CI and plotting scripts.
//
// With -baseline, each freshly written BENCH_*.json is compared against
// the file of the same name in the baseline directory (typically the
// repo root, where the committed baselines live); any simulated metric
// drifting more than 20% — or any structural change — is an error. The
// simulation is deterministic, so an unintended behavior change shows up
// as drift here even when the human-readable report looks plausible.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/prof"
)

// baselineTol is the relative drift allowed against a committed
// baseline before the run fails.
const baselineTol = 0.20

// baselineDir is the -baseline flag: when set, freshly written
// BENCH_*.json files are checked against their committed counterparts.
var baselineDir string

// checkBaseline compares the freshly written result at freshPath with
// the committed baseline of the same name, when -baseline is set.
func checkBaseline(freshPath string) error {
	if baselineDir == "" {
		return nil
	}
	name := filepath.Base(freshPath)
	basePath := filepath.Join(baselineDir, name)
	base, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", basePath, err)
	}
	fresh, err := os.ReadFile(freshPath)
	if err != nil {
		return err
	}
	if err := exp.CompareBenchJSON(fresh, base, baselineTol); err != nil {
		return fmt.Errorf("%s vs baseline %s: %w", freshPath, basePath, err)
	}
	fmt.Fprintf(os.Stderr, "embench: %s matches baseline %s\n", freshPath, basePath)
	return nil
}

// subcommands lists every experiment in presentation order.
var subcommands = []struct {
	name string
	run  func(outDir string) error
}{
	{"fig1", figure1},
	{"table1", table1},
	{"fig2", figure2},
	{"fig3", figure3},
	{"intranode", intraNode},
	{"conv", conv},
	{"ablations", ablations},
	{"par", par},
	{"jit", jitStudy},
	{"auto", autoStudy},
	{"dir", dirStudy},
	{"shrink", shrink},
}

// autoStudy runs the adaptive-placement policy table (see internal/exp
// auto.go): four arms over one generated zipf workload, writing
// BENCH_auto.json.
func autoStudy(outDir string) error {
	rows, desc, err := exp.AutoStudy()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatAuto(rows, desc))
	path, err := exp.WriteBenchJSON(outDir, "auto", exp.BenchAutoDoc(rows, desc))
	if err != nil {
		return err
	}
	wrote(path)
	return checkBaseline(path)
}

// dirStudy runs the replicated-directory overhead table (see internal/exp
// dir.go): directory off/on, clean and under a replica crash/restart,
// writing BENCH_dir.json.
func dirStudy(outDir string) error {
	rows, desc, err := exp.DirStudy()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatDir(rows, desc))
	path, err := exp.WriteBenchJSON(outDir, "dir", exp.BenchDirDoc(rows, desc))
	if err != nil {
		return err
	}
	wrote(path)
	return checkBaseline(path)
}

// jitStudy measures the two dispatch tiers (legacy reference stepper /
// fused superinstructions) on a compute-bound loop per ISA, writing
// BENCH_jit.json. The simulated fields are baseline-gated; the emulated-
// MIPS numbers are host wall-clock, carry the "host" field prefix, and
// are skipped by the comparator.
func jitStudy(outDir string) error {
	rs, err := exp.JitStudy()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatJit(rs))
	path, err := exp.WriteBenchJSON(outDir, "jit", exp.BenchJitDoc(rs))
	if err != nil {
		return err
	}
	wrote(path)
	return checkBaseline(path)
}

func shrink(string) error {
	rows, err := exp.Shrink(filepath.Join("examples", "programs"))
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatShrink(rows))
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
	flag.StringVar(&baselineDir, "baseline", "",
		"directory of committed BENCH_*.json baselines to compare against (>20% drift fails)")
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
		if err := s.run(*outDir); err != nil {
			stopProfile()
			fmt.Fprintf(os.Stderr, "embench %s: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	stopProfile()
}

// wrote reports a BENCH_*.json file on stderr so stdout stays a clean
// human-readable report.
func wrote(path string) {
	fmt.Fprintf(os.Stderr, "embench: wrote %s\n", path)
}

func ablations(string) error {
	bs, err := exp.BusStopDensity()
	if err != nil {
		return err
	}
	homes, err := exp.RegisterHomes()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatAblations(bs, homes))
	return nil
}

func table1(outDir string) error {
	cells, err := exp.Table1()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatTable1(cells))
	path, err := exp.WriteBenchJSON(outDir, "table1", exp.BenchTable1Doc(cells))
	if err != nil {
		return err
	}
	wrote(path)
	return checkBaseline(path)
}

func figure1(string) error {
	fmt.Println("Figure 1: a network of heterogeneous nodes")
	for i, m := range core.Figure1Network() {
		fmt.Printf("  node%d: %-18s (%s, %.1f effective MHz)\n", i, m.Name, archName(m), m.MHz)
	}
	fmt.Println("  connected by a shared 10 Mbit/s Ethernet")
	return nil
}

func archName(m netsim.MachineModel) string {
	return [...]string{"vax", "m68k", "sparc"}[m.Arch]
}

func figure2(outDir string) error {
	rows, err := exp.Figure2()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatFigure2(rows))
	path, err := exp.WriteBenchJSON(outDir, "fig2", exp.BenchFig2Doc(rows))
	if err != nil {
		return err
	}
	wrote(path)
	return checkBaseline(path)
}

func figure3(string) error {
	s, err := exp.Figure34()
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func intraNode(string) error {
	fmt.Println("§3.6 intra-node performance invariant (compute phase, ms):")
	fmt.Printf("%-20s %10s %10s %14s %6s\n", "machine", "local", "migrated", "original-sys", "ok")
	for _, m := range []netsim.MachineModel{
		netsim.VAXstation2000, netsim.Sun3_100, netsim.HP9000_433s, netsim.SPARCstationSLC,
	} {
		r, err := exp.IntraNode(m)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %10.1f %10.1f %14.1f %6v\n",
			r.Arch, r.LocalMS, r.MigratedMS, r.OriginalSysMS, r.EnhancedMatches)
	}
	fmt.Println("migrated threads run at native speed, identical to the original system")
	return nil
}

// par measures sequential-vs-parallel wall-clock over N-node rings.
// BENCH_par.json records wall-clock times and the host CPU count, so it is
// deliberately not baseline-compared (wall-clock is host-dependent; the
// byte-identity of the two engines is checked inside the experiment).
func par(outDir string) error {
	rs, err := exp.ParScaling([]int{1, 2, 4, 8}, 6, 30000)
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatParScaling(rs))
	path, err := exp.WriteBenchJSON(outDir, "par", exp.BenchParDoc(rs))
	if err != nil {
		return err
	}
	wrote(path)
	return nil
}

func conv(outDir string) error {
	rs, err := exp.ConversionStudy()
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatConversionStudy(rs))
	path, err := exp.WriteBenchJSON(outDir, "conv", exp.BenchConvDoc(rs))
	if err != nil {
		return err
	}
	wrote(path)
	return checkBaseline(path)
}
