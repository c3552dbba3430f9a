package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the ledger table in EXPERIMENTS.md")

const (
	ledgerPath      = "../../LEDGER.jsonl"
	experimentsPath = "../../EXPERIMENTS.md"
	tableBegin      = "<!-- ledger table: generated from LEDGER.jsonl by `go test ./tools/pairbench -update` -->\n"
	tableEnd        = "<!-- end of ledger table -->\n"
)

func TestQuartiles(t *testing.T) {
	// Python: statistics.quantiles(xs, n=4)
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2, 5}, 1.25, 2.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v / %v / %v, want %v / %v / %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestParseResult(t *testing.T) {
	decls := []metricDecl{{Name: "wall_s"}, {Name: "sim_ms"}}
	for _, c := range []struct{ line, want string }{
		{`{"correct":true,"failed":0,"metrics":{"wall_s":{"value":1.5},"sim_ms":{"value":7}}}`, ""},
		{`{"correct":false,"failed":0,"metrics":{"wall_s":{"value":1.5},"sim_ms":{"value":7}}}`, "wrong output"},
		{`{"correct":false,"failed":3,"metrics":{"wall_s":{"value":1.5},"sim_ms":{"value":7}}}`, "3 failed ops"},
		{`{"correct":true,"failed":0,"metrics":{"wall_s":{"value":1.5}}}`, "lacks metric sim_ms"},
	} {
		m, err := parseResult([]byte("progress line\n"+c.line+"\n\n"), decls)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.line, err)
		case c.want == "" && (m["wall_s"] != 1.5 || m["sim_ms"] != 7):
			t.Errorf("%s: read %v", c.line, m)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one saying %q", c.line, err, c.want)
		}
	}
}

func TestMeasure(t *testing.T) {
	decls := []metricDecl{{Name: "wall_s", Better: "lower"}, {Name: "sim_ms", Better: "lower"}}
	runs := func(walls ...float64) *side {
		s := &side{}
		for _, w := range walls {
			s.runs = append(s.runs, map[string]float64{"wall_s": w, "sim_ms": 7})
		}
		return s
	}
	var table bytes.Buffer
	rec := measure(&table, record{PR: 1, Workload: "w"}, "HEAD", decls, runs(2, 3, 4), runs(1, 3, 5))
	wall, sim := rec.Metrics["wall_s"], rec.Metrics["sim_ms"]
	if rec.Pairs != 3 || *wall.Won != 1 || *wall.Lost != 1 || wall.Exact != "" || wall.Change.Median != 3 {
		t.Errorf("wall_s: pairs %d, %d won, %d lost, exact %q, change median %v; want 3, 1, 1, \"\", 3",
			rec.Pairs, *wall.Won, *wall.Lost, wall.Exact, wall.Change.Median)
	}
	if *sim.Won != 0 || *sim.Lost != 0 || sim.Exact != "equal" {
		t.Errorf("sim_ms: %d won, %d lost, exact %q; want 0, 0, equal", *sim.Won, *sim.Lost, sim.Exact)
	}
	if !strings.Contains(table.String(), "1 won, 1 lost of 3") {
		t.Errorf("table lacks the pair count:\n%s", table.String())
	}
}

// readLedger decodes LEDGER.jsonl, one record a line, refusing unknown fields.
func readLedger(t *testing.T) []record {
	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var r record
		if err := dec.Decode(&r); err != nil || dec.More() {
			t.Fatalf("LEDGER.jsonl:%d: not one record: %v", n, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// A change measured against its own commit is refused before anything is
// built: once a change is committed, the default REF=HEAD would compare it
// with itself and record it as its own parent. The ledger the run appends
// to does not count as a change; any other tracked file does.
func TestRefusesSelfComparison(t *testing.T) {
	dir := t.TempDir()
	git := func(args ...string) {
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCHMARK.json", `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"wall_s","better":"lower"}]}`)
	write("LEDGER.jsonl", "")
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "parent")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	write("LEDGER.jsonl", "{}\n")
	if err := run(context.Background(), "all", 1, "HEAD", 1); err == nil || !strings.Contains(err.Error(), "REF=") {
		t.Errorf("run against the working tree's own commit: %v, want a refusal naming REF=", err)
	}
	write("BENCHMARK.json", `{"workloads":[],"end_to_end":[]}`)
	if err := run(context.Background(), "all", 1, "HEAD", 1); err == nil || strings.Contains(err.Error(), "REF=") {
		t.Errorf("run with a changed BENCHMARK.json: %v, want it past the check (and failing to build)", err)
	}
}

// fakeBench is a benchmark that marks that it runs, then sleeps past any
// test: only an interrupt of pairbench ends it.
const fakeBench = `package main

import (
	"os"
	"time"
)

func main() {
	os.WriteFile(os.Getenv("FAKEBENCH_MARKER"), nil, 0o644)
	time.Sleep(time.Minute)
}
`

// A pairbench interrupted mid-pair removes its temporary directory (the
// unpacked reference tree and both builds) and exits non-zero.
func TestInterruptRemovesTempDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pairbench and a benchmark")
	}
	dir, tmp := t.TempDir(), t.TempDir()
	bin := filepath.Join(t.TempDir(), "pairbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	git := func(args ...string) {
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	write("BENCHMARK.json", `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"wall_s","better":"lower"}]}`)
	write("bench/go.mod", "module fakebench\n\ngo 1.22\n")
	write("bench/main.go", fakeBench)
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "parent")
	write("bench/main.go", fakeBench+"// the change\n")

	marker := filepath.Join(t.TempDir(), "running")
	cmd := exec.Command(bin, "-w", "w", "-n", "1", "-pr", "1")
	var stderr bytes.Buffer
	cmd.Dir, cmd.Stderr = dir, &stderr
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp, "FAKEBENCH_MARKER="+marker)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(50 * time.Millisecond) {
		if _, err := os.Stat(marker); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("the first run of the pair never started:\n%s", stderr.String())
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil || !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("interrupted pairbench: %v, want a non-zero exit saying it was interrupted:\n%s", err, stderr.String())
	}
	left, err := filepath.Glob(filepath.Join(tmp, "pairbench*"))
	if err != nil || len(left) != 0 {
		t.Errorf("left behind in TMPDIR: %v (%v)", left, err)
	}
}

func TestLedger(t *testing.T) {
	workloads, decls, err := benchmarkDecl("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, name := range workloads {
		known["workload "+name] = true
	}
	for _, d := range decls {
		known["metric "+d.Name] = true
	}
	seen := map[string]bool{}
	last := 0
	for _, r := range readLedger(t) {
		key := fmt.Sprintf("PR %d %s", r.PR, r.Workload)
		if !known["workload "+r.Workload] {
			t.Errorf("%s: no such workload in BENCHMARK.json", key)
		}
		for name, o := range r.Metrics {
			if !known["metric "+name] {
				t.Errorf("%s: %s is not an end-to-end metric of BENCHMARK.json", key, name)
			}
			if o.Exact != "" && o.Exact != "equal" && o.Exact != "differs" {
				t.Errorf("%s: %s: exact is %q, want equal or differs", key, name, o.Exact)
			}
		}
		if seen[key] {
			t.Errorf("%s: a second record", key)
		}
		if r.PR < last {
			t.Errorf("%s: after PR %d", key, last)
		}
		seen[key], last = true, r.PR
	}
}

// TestLedgerTable checks that EXPERIMENTS.md's ledger table is the one
// LEDGER.jsonl renders; -update rewrites it.
func TestLedgerTable(t *testing.T) {
	workloads, _, err := benchmarkDecl("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	table := renderTable(readLedger(t), workloads)
	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	before, rest, ok1 := strings.Cut(string(doc), tableBegin)
	old, after, ok2 := strings.Cut(rest, tableEnd)
	if !ok1 || !ok2 {
		t.Fatalf("EXPERIMENTS.md lacks the lines\n%s...\n%s", tableBegin, tableEnd)
	}
	if *update {
		if err := os.WriteFile(experimentsPath, []byte(before+tableBegin+table+tableEnd+after), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if old != table {
		t.Errorf("EXPERIMENTS.md's ledger table is stale (go test ./tools/pairbench -update rewrites it); want\n%s", table)
	}
}

// renderTable is one row per PR and one column per workload; a cell reads
// wall_s parent → change (Δ %, pairs won).
func renderTable(recs []record, workloads []string) string {
	var b strings.Builder
	b.WriteString("| PR | `" + strings.Join(workloads, "` | `") + "` |\n|---|" + strings.Repeat("---|", len(workloads)) + "\n")
	for i := 0; i < len(recs); {
		pr, cells := recs[i].PR, map[string]string{}
		for ; i < len(recs) && recs[i].PR == pr; i++ {
			cells[recs[i].Workload] = cell(recs[i])
		}
		fmt.Fprintf(&b, "| %d |", pr)
		for _, w := range workloads {
			c, ok := cells[w]
			if !ok {
				c = "—"
			}
			b.WriteString(" " + c + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func cell(r record) string {
	o := r.Metrics["wall_s"]
	if o.Parent == nil || o.Change == nil {
		return "—"
	}
	a, c := o.Parent.Median, o.Change.Median
	delta := strings.Replace(fmt.Sprintf("%+.1f %%", 100*(c-a)/a), "-", "−", 1)
	if o.Won != nil {
		delta += fmt.Sprintf(", %d/%d", *o.Won, r.Pairs)
	}
	return fmt.Sprintf("%#.3g → %#.3g (%s)", a, c, delta)
}
