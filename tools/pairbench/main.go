// Command pairbench measures a change against a reference commit the way
// the emperf ledger in EXPERIMENTS.md is kept: it builds the benchmark
// (bench/) once from `git archive <ref>` and once from the working tree,
// runs N alternating pairs of `-workload W -trace 0` (odd pairs reference
// first, even pairs change first, so host-speed drift lands on both sides),
// and prints, per end-to-end metric, each side's median and quartiles, the
// change of the medians and how many pairs the change won. Metrics the
// simulation fixes (sim_ms, frames, wire bytes) and the allocation counts,
// which repeat from run to run, also get an exact-equality column.
// `-w all` runs every workload of BENCHMARK.json in turn off the same two
// builds, one table each: the gate is "no metric worse on any workload".
//
// Run it from the repository root (`make emperf-pairs W=chaos_tour N=10`).
// It reads BENCHMARK.json for the metric list and the better direction.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

type metricDecl struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// side is one of the two builds and the readings its runs produced.
type side struct {
	label string
	bin   string
	dir   string // the run's working directory: the build's own bench/
	runs  []map[string]float64
}

func main() {
	workload := flag.String("w", "", "workload to run (a name from BENCHMARK.json, or all)")
	pairs := flag.Int("n", 10, "number of alternating pairs")
	ref := flag.String("ref", "HEAD", "reference commit")
	seconds := flag.Float64("seconds", 0, "pass -seconds to the benchmark (0: its default)")
	flag.Parse()
	if *workload == "" || *pairs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pairbench -w workload|all [-n pairs] [-ref commit] [-seconds s]")
		os.Exit(2)
	}
	if err := run(*workload, *pairs, *ref, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "pairbench:", err)
		os.Exit(1)
	}
}

func run(workload string, pairs int, ref string, seconds float64) error {
	workloads, decls, err := benchmarkDecl("BENCHMARK.json")
	if err != nil {
		return err
	}
	if workload != "all" {
		workloads = []string{workload}
	}
	tmp, err := os.MkdirTemp("", "pairbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	refTree := filepath.Join(tmp, "ref")
	if err := os.Mkdir(refTree, 0o755); err != nil {
		return err
	}
	if err := sh("", "git archive "+shellQuote(ref)+" | tar -x -C "+shellQuote(refTree)); err != nil {
		return fmt.Errorf("unpack %s: %w", ref, err)
	}
	work, err := filepath.Abs(".")
	if err != nil {
		return err
	}
	sides := [2]*side{
		{label: "ref", bin: filepath.Join(tmp, "bench_ref"), dir: filepath.Join(refTree, "bench")},
		{label: "change", bin: filepath.Join(tmp, "bench_change"), dir: filepath.Join(work, "bench")},
	}
	for _, s := range sides {
		if err := sh(s.dir, "go build -o "+shellQuote(s.bin)+" ."); err != nil {
			return fmt.Errorf("build %s: %w", s.label, err)
		}
	}

	for _, w := range workloads {
		args := []string{"-workload", w, "-trace", "0"}
		if seconds > 0 {
			args = append(args, "-seconds", fmt.Sprint(seconds))
		}
		for p := 1; p <= pairs; p++ {
			order := sides
			if p%2 == 0 {
				order[0], order[1] = order[1], order[0]
			}
			for _, s := range order {
				m, err := oneRun(s, args)
				if err != nil {
					return fmt.Errorf("%s, pair %d, %s: %w", w, p, s.label, err)
				}
				s.runs = append(s.runs, m)
				fmt.Fprintf(os.Stderr, "%s pair %d/%d %-6s wall_s %.4g  mallocs_per_op %.6g\n",
					w, p, pairs, s.label, m["wall_s"], m["mallocs_per_op"])
			}
		}
		report(w, pairs, ref, decls, sides[0], sides[1])
		sides[0].runs, sides[1].runs = nil, nil
	}
	return nil
}

// oneRun runs the benchmark once and returns the metrics of its result line
// (the last line of standard output).
func oneRun(s *side, args []string) (map[string]float64, error) {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("benchmark reports %d failed ops", res.Failed)
	}
	m := map[string]float64{}
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

func report(workload string, pairs int, ref string, decls []metricDecl, a, b *side) {
	fmt.Printf("%s: %d alternating pairs, %s vs working tree\n", workload, pairs, ref)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tref median [q1–q3]\tchange median [q1–q3]\tchange\tpairs won\texact")
	for _, d := range decls {
		xs, ys := column(a, d.Name), column(b, d.Name)
		aq1, amed, aq3 := quartiles(xs)
		bq1, bmed, bq3 := quartiles(ys)
		won, lost := 0, 0
		for i := range xs {
			better := ys[i] < xs[i]
			if d.Better == "higher" {
				better = ys[i] > xs[i]
			}
			switch {
			case ys[i] == xs[i]: // a tie counts for neither side
			case better:
				won++
			default:
				lost++
			}
		}
		exact := ""
		if constant(xs) && constant(ys) {
			exact = "differs"
			if xs[0] == ys[0] {
				exact = "equal"
			}
		}
		change := "n/a"
		if amed != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(bmed-amed)/amed)
		}
		fmt.Fprintf(tw, "%s\t%.6g [%.6g–%.6g]\t%.6g [%.6g–%.6g]\t%s\t%d won, %d lost of %d\t%s\n",
			d.Name, amed, aq1, aq3, bmed, bq1, bq3, change, won, lost, len(xs), exact)
	}
	tw.Flush()
}

func column(s *side, name string) []float64 {
	xs := make([]float64, len(s.runs))
	for i, r := range s.runs {
		xs[i] = r[name]
	}
	return xs
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// quartiles returns q1, the median and q3 the way the benchmark and its
// driver compute them: Python's statistics.quantiles(xs, n=4), exclusive.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// benchmarkDecl reads the benchmark's workload names and end-to-end metrics.
func benchmarkDecl(path string) (workloads []string, metrics []metricDecl, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (run pairbench from the repository root)", err)
	}
	var file struct {
		Workloads []metricDecl `json:"workloads"` // only the names
		EndToEnd  []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range file.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, file.EndToEnd, nil
}

// sh runs a shell command line in dir, passing its output through.
func sh(dir, line string) error {
	cmd := exec.Command("sh", "-c", line)
	cmd.Dir = dir
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

func shellQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'" }
