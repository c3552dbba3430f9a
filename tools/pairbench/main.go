// Command pairbench measures a change against a reference commit the way
// the emperf ledger (LEDGER.jsonl, EXPERIMENTS.md) is kept: it builds the
// benchmark (bench/) once from `git archive <ref>` and once from the working
// tree, runs N alternating pairs of `-workload W -trace 0` (odd pairs
// reference first, even pairs change first, so host-speed drift lands on
// both sides), and prints one ledger record per workload on standard
// output: per end-to-end metric, each side's median and quartiles, how many
// pairs the change won and lost, and, where both sides repeated exactly,
// whether they are equal. The same figures go to standard error as a table,
// after the progress lines. `-w all` runs every workload of BENCHMARK.json
// in turn off the same two builds: the gate is "no metric worse on any
// workload".
//
// Run it from the repository root (`make emperf-pairs W=all N=10 PR=n`
// appends its records to LEDGER.jsonl). It reads BENCHMARK.json for the
// metric list and the better direction. Interrupted (SIGINT, SIGTERM), it
// kills what it started, removes its temporary directory and exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
)

type metricDecl struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// record is one line of LEDGER.jsonl: one workload of one change, measured
// against its parent. A field a measurement did not state is absent.
type record struct {
	PR       int                `json:"pr"`
	Workload string             `json:"workload"`
	Parent   string             `json:"parent,omitempty"`
	Pairs    int                `json:"pairs,omitempty"`
	Metrics  map[string]outcome `json:"metrics"`
}

// outcome is one end-to-end metric of a record.
type outcome struct {
	Parent *spread `json:"parent,omitempty"`
	Change *spread `json:"change,omitempty"`
	Won    *int    `json:"won,omitempty"`
	Lost   *int    `json:"lost,omitempty"`
	Exact  string  `json:"exact,omitempty"` // both sides repeated exactly: "equal" or "differs"
}

type spread struct {
	Median float64  `json:"median"`
	Q1     *float64 `json:"q1,omitempty"`
	Q3     *float64 `json:"q3,omitempty"`
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
	pr := flag.Int("pr", 0, "the change's number, the records' label")
	flag.Parse()
	if *workload == "" || *pairs < 1 || *pr < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pairbench -w workload|all -pr n [-n pairs] [-ref commit]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *workload, *pairs, *ref, *pr); err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("interrupted: %w", err)
		}
		fmt.Fprintln(os.Stderr, "pairbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, workload string, pairs int, ref string, pr int) error {
	workloads, decls, err := benchmarkDecl("BENCHMARK.json")
	if err != nil {
		return err
	}
	if workload != "all" {
		workloads = []string{workload}
	}
	hash, err := exec.Command("git", "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("resolve %s: %w", ref, err)
	}
	parent := strings.TrimSpace(string(hash))
	if exec.Command("git", "diff", "--quiet", parent, "--", ".", ":!LEDGER.jsonl").Run() == nil {
		return fmt.Errorf("the working tree is %s's (LEDGER.jsonl aside): name the parent commit with REF=", ref)
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
	if err := sh(ctx, "", "git archive "+parent+" | tar -x -C "+shellQuote(refTree)); err != nil {
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
		if err := sh(ctx, s.dir, "go build -o "+shellQuote(s.bin)+" ."); err != nil {
			return fmt.Errorf("build %s: %w", s.label, err)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	for _, w := range workloads {
		for p := 1; p <= pairs; p++ {
			order := sides
			if p%2 == 0 {
				order[0], order[1] = order[1], order[0]
			}
			for _, s := range order {
				cmd := command(ctx, s.dir, s.bin, "-workload", w, "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				var m map[string]float64
				if err == nil {
					m, err = parseResult(out, decls)
				}
				if err != nil {
					return fmt.Errorf("%s, pair %d, %s: %w", w, p, s.label, err)
				}
				s.runs = append(s.runs, m)
				fmt.Fprintf(os.Stderr, "%s pair %d/%d %-6s wall_s %.4g  mallocs_per_op %.6g\n",
					w, p, pairs, s.label, m["wall_s"], m["mallocs_per_op"])
			}
		}
		rec := record{PR: pr, Workload: w, Parent: parent}
		if err := enc.Encode(measure(os.Stderr, rec, ref, decls, sides[0], sides[1])); err != nil {
			return err
		}
		sides[0].runs, sides[1].runs = nil, nil
	}
	return nil
}

// parseResult reads the benchmark's result line (the last line of its
// standard output): a run that failed ops or printed wrong output, or whose
// line lacks a declared metric, is an error.
func parseResult(out []byte, decls []metricDecl) (map[string]float64, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if res.Failed != 0 {
		return nil, fmt.Errorf("benchmark reports %d failed ops", res.Failed)
	}
	if !res.Correct {
		return nil, fmt.Errorf("benchmark reports wrong output")
	}
	m := map[string]float64{}
	for _, d := range decls {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("result line lacks metric %s", d.Name)
		}
		m[d.Name] = v.Value
	}
	return m, nil
}

// measure summarizes the runs of the two sides as rec's metrics and writes
// the same figures to w as a table.
func measure(w io.Writer, rec record, ref string, decls []metricDecl, a, b *side) record {
	rec.Pairs, rec.Metrics = len(a.runs), map[string]outcome{}
	fmt.Fprintf(w, "%s: %d alternating pairs, %s vs working tree\n", rec.Workload, rec.Pairs, ref)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
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
		o := outcome{Parent: &spread{amed, &aq1, &aq3}, Change: &spread{bmed, &bq1, &bq3}, Won: &won, Lost: &lost}
		if constant(xs) && constant(ys) {
			o.Exact = "differs"
			if xs[0] == ys[0] {
				o.Exact = "equal"
			}
		}
		rec.Metrics[d.Name] = o
		change := "n/a"
		if amed != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(bmed-amed)/amed)
		}
		fmt.Fprintf(tw, "%s\t%.6g [%.6g–%.6g]\t%.6g [%.6g–%.6g]\t%s\t%d won, %d lost of %d\t%s\n",
			d.Name, amed, aq1, aq3, bmed, bq1, bq3, change, won, lost, len(xs), o.Exact)
	}
	tw.Flush()
	return rec
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
func sh(ctx context.Context, dir, line string) error {
	cmd := command(ctx, dir, "sh", "-c", line)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// command runs name in dir in a process group of its own, killed once ctx
// is done, before run removes the directory it works in.
func command(ctx context.Context, dir, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	return cmd
}

func shellQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'" }
