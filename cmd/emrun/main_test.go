package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

var (
	programs = filepath.Join("..", "..", "examples", "programs")
	kilroy   = filepath.Join(programs, "kilroy.em")
)

// flagNames are the flags a -h listing shows, in its (sorted) order.
func flagNames(help string) []string {
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(help, -1) {
		names = append(names, m[1])
	}
	return names
}

// withRunFlags is own plus every flag core.RegisterFlags defines, sorted:
// what -h must list (core's TestRunFlagsDeclaredOnce pins that the run
// flags have one source).
func withRunFlags(own ...string) []string {
	ref := flag.NewFlagSet("", flag.ContinueOnError)
	core.RegisterFlags(ref)
	ref.VisitAll(func(f *flag.Flag) { own = append(own, f.Name) })
	sort.Strings(own)
	return own
}

func TestHelpListsTheRunFlags(t *testing.T) {
	var help bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &help); code != 0 {
		t.Errorf("emrun -h: exit %d", code)
	}
	own := []string{"auto-log", "chrome", "cpuprofile", "faults", "memprofile", "metrics", "spans", "stats", "trace"}
	want := withRunFlags(own...)
	if got := flagNames(help.String()); !reflect.DeepEqual(got, want) {
		t.Errorf("emrun -h lists %v, want its output flags %v and the run flags: %v (a run-shaping flag belongs in core.RegisterFlags)", got, own, want)
	}
}

func TestRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-net", "sparc,vax", "-dir", "2", "-stats", kilroy}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("emrun %v: exit %d\n%s", args, code, stderr.String())
	}
	if got := stdout.String(); got != "Kilroy was here: node0 node1\n" {
		t.Errorf("stdout = %q", got)
	}
	if !strings.Contains(stderr.String(), "simulated time:") || !strings.Contains(stderr.String(), " instrs=") {
		t.Errorf("-stats output missing from stderr:\n%s", stderr.String())
	}
}

// TestBadCommandLines: retired control-arm flags are unknown, and a bad
// value is reported, not run.
func TestBadCommandLines(t *testing.T) {
	for args, want := range map[string]int{
		"-nosharpen " + kilroy:         2,
		"-faults -nosharpen " + kilroy: 2,
		"-dir-nogroup " + kilroy:       2,
		"-auto-period 5000 " + kilroy:  2,
		"-net pdp11 " + kilroy:         2,
		"-mode turbo " + kilroy:        2,
		"":                             2,
	} {
		var stderr bytes.Buffer
		if code := run(strings.Fields(args), io.Discard, &stderr); code != want || stderr.Len() == 0 {
			t.Errorf("emrun %s: exit %d, stderr %q; want exit %d and a report", args, code, stderr.String(), want)
		}
	}
}

// TestTraceDirectoryRun: a directory-armed, leased run exports a loadable
// Chrome trace showing the decree traffic, metrics counting the decrees,
// and the span table.
func TestTraceDirectoryRun(t *testing.T) {
	dir := t.TempDir()
	chrome, metrics := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	var stderr bytes.Buffer
	args := []string{"-dir", "3", "-dir-lease", "2000000", "-chrome", chrome, "-metrics", metrics, "-spans", kilroy}
	if code := run(args, io.Discard, &stderr); code != 0 {
		t.Fatalf("emrun %v: exit %d\n%s", args, code, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "span  object") {
		t.Errorf("-spans printed no span table:\n%s", stderr.String())
	}
	var doc struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	learns := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "wire-send dirlearn" {
			learns++
		}
	}
	if learns == 0 {
		t.Error("trace of a -dir 3 run shows no directory decree traffic")
	}
	raw, err = os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) || !bytes.Contains(raw, []byte("dir_decrees")) {
		t.Error("metrics of a -dir 3 run are not JSON counting dir_decrees")
	}
}

// TestTraceFaultedRun: a run that ends in a fault (node 2 crashes for good,
// stranding a remote call) reports what the recorder holds, then exits 1.
func TestTraceFaultedRun(t *testing.T) {
	zipf := filepath.Join(programs, "zipf_hot.em")
	for _, report := range []string{"-trace", "-spans"} {
		var stderr bytes.Buffer
		args := []string{report, "-chaos", "seed=1,crash=2@76ms", zipf}
		if code := run(args, io.Discard, &stderr); code != 1 || !strings.Contains(stderr.String(), "node 2 is down") {
			t.Errorf("emrun %v: exit %d, want 1 with the fault; stderr %q", args, code, stderr.String())
		}
		if n := strings.Count(stderr.String(), "\n"); n < 3 {
			t.Errorf("emrun %v reported %d lines:\n%s", args, n, stderr.String())
		}
	}
}

// evictingRun is pingpong at 3 000 round trips under drops and duplicates:
// the run evicts most of its events from the rings, so an export that read
// the rings would miss most of what happened.
func evictingRun(t *testing.T) (path string, args []string) {
	src, err := os.ReadFile(filepath.Join(programs, "pingpong.em"))
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Replace(string(src), "b.rally(20)", "b.rally(3000)", 1)
	path = filepath.Join(t.TempDir(), "pingpong3000.em")
	if err := os.WriteFile(path, []byte(long), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, []string{"-chaos", "seed=7,drop=0.05,dup=0.02"}
}

// runEvicting runs evictingRun's program and plan in-process.
func runEvicting(t *testing.T) *core.System {
	prog, chaos := evictingRun(t)
	src, err := os.ReadFile(prog)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("emrun", flag.ContinueOnError)
	runFlags := core.RegisterFlags(fs)
	if err := fs.Parse(chaos); err != nil {
		t.Fatal(err)
	}
	machines, opts, err := runFlags.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.RunSource(string(src), machines, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFaultsReadTheRegistry: on a run whose rings evicted most events,
// every count -faults prints equals its series in the metrics snapshot.
func TestFaultsReadTheRegistry(t *testing.T) {
	prog, chaos := evictingRun(t)
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var stderr bytes.Buffer
	args := append(chaos, "-faults", "-metrics", metrics, prog)
	if code := run(args, io.Discard, &stderr); code != 0 {
		t.Fatalf("emrun %v: exit %d\n%s", args, code, stderr.String())
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	// series[name][labels] and totals[name] (over every label set).
	series, totals := map[string]map[string]uint64{}, map[string]uint64{}
	for _, c := range snap.Counters {
		if series[c.Name] == nil {
			series[c.Name] = map[string]uint64{}
		}
		series[c.Name][c.Labels] = c.Value
		totals[c.Name] += c.Value
	}
	nodeLine := regexp.MustCompile(`^node(\d+) .*\[.*\]:`)
	counts := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		head, pairs, ok := strings.Cut(line, ":")
		if !ok || !strings.Contains(pairs, "=") {
			continue
		}
		// want returns the snapshot value of the printed pair k.
		var want func(k string) uint64
		switch m := nodeLine.FindStringSubmatch(line); {
		case m != nil:
			want = func(k string) uint64 {
				for labels, v := range series[k] {
					if strings.HasPrefix(labels, "node="+m[1]+",") {
						return v
					}
				}
				return 0
			}
		case head == "all nodes":
			want = func(k string) uint64 { return totals[k] }
		case head == "chaos_injected, cluster-wide":
			want = func(k string) uint64 { return series["chaos_injected"]["kind="+k] }
		case head == "link_drops, cluster-wide":
			want = func(k string) uint64 { return series["link_drops"]["reason="+k] }
		default:
			t.Errorf("unexpected -faults line %q", line)
			continue
		}
		for _, pair := range strings.Fields(pairs) {
			k, v, _ := strings.Cut(pair, "=")
			got, err := strconv.ParseUint(v, 10, 64)
			if err != nil || got != want(k) {
				t.Errorf("%s: %s printed, the snapshot holds %d", head, pair, want(k))
			}
			counts++
		}
	}
	// Four nodes and the total, two injected kinds, one drop reason.
	if want := 5*len(faultSeries) + 3; counts != want {
		t.Errorf("-faults printed %d counts, want %d:\n%s", counts, want, stderr.String())
	}
	for _, want := range []string{
		"all nodes: retransmits=1424 move_commits=6000 ",
		"chaos_injected, cluster-wide: drop=5079 dup=2068\n",
		"link_drops, cluster-wide: dup=1077\n",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-faults does not print %q:\n%s", want, stderr.String())
		}
	}
}

// TestExportsSayTheyAreATail: the evicting run's event log opens with a
// line stating the evicted count and the ring cap, and its Chrome trace
// states both in one metadata event.
func TestExportsSayTheyAreATail(t *testing.T) {
	rec := runEvicting(t).Recorder()
	if rec.Dropped() == 0 {
		t.Fatal("the run evicted no event")
	}
	head := fmt.Sprintf("# tail: %d events evicted from full rings; each node keeps its last %d\n", rec.Dropped(), obs.DefaultRingCap)
	if log := obs.EventLog(rec); !bytes.HasPrefix(log, []byte(head)) {
		t.Errorf("event log opens %q, want %q", log[:min(len(log), len(head))], head)
	}
	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, rec); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	var first struct {
		Name, Ph string
		Args     map[string]uint64
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc.TraceEvents[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "trace_tail" || first.Ph != "M" || first.Args["dropped"] != rec.Dropped() || first.Args["ring_cap"] != obs.DefaultRingCap {
		t.Errorf("Chrome trace opens with %+v, want the trace_tail metadata event (dropped %d, ring_cap %d)", first, rec.Dropped(), obs.DefaultRingCap)
	}
}

// TestExperimentsChaosNumbers: EXPERIMENTS.md's seeded-chaos figures are
// what emrun prints today. The -faults block is rerun from its own
// command line and must match to the byte; the evicting run's sentence
// (rallies, plan, evicted events) must name evictingRun's run and its
// eviction count.
func TestExperimentsChaosNumbers(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile("(?s)```\ngo run \\./cmd/emrun (-faults .*?)\n```\n\n```\n(.*?)```\n").FindSubmatch(doc)
	if block == nil {
		t.Fatal("EXPERIMENTS.md has no `go run ./cmd/emrun -faults` block followed by its output")
	}
	var args []string
	for _, arg := range strings.Fields(strings.ReplaceAll(string(block[1]), "\\\n", " ")) {
		args = append(args, strings.Trim(arg, "'"))
	}
	args[len(args)-1] = filepath.Join("..", "..", args[len(args)-1])
	var stderr bytes.Buffer
	if code := run(args, io.Discard, &stderr); code != 0 {
		t.Fatalf("emrun %v: exit %d\n%s", args, code, stderr.String())
	}
	if got := stderr.String(); got != string(block[2]) {
		t.Errorf("emrun %s prints\n%s\nEXPERIMENTS.md shows\n%s", strings.Join(args, " "), got, block[2])
	}

	sentence := regexp.MustCompile("pingpong at ([\\d ]+) round trips under\\s+`([^`]+)` evicts ([\\d ]+) events").FindSubmatch(doc)
	if sentence == nil {
		t.Fatal("EXPERIMENTS.md does not say how many events the pingpong run evicts")
	}
	digits := func(b []byte) string { return strings.ReplaceAll(string(b), " ", "") }
	if _, chaos := evictingRun(t); digits(sentence[1]) != "3000" || "-chaos "+string(sentence[2]) != strings.Join(chaos, " ") {
		t.Errorf("EXPERIMENTS.md's evicting run is %s rallies under %s, not evictingRun's", sentence[1], sentence[2])
	}
	if got := fmt.Sprint(runEvicting(t).Recorder().Dropped()); digits(sentence[3]) != got {
		t.Errorf("EXPERIMENTS.md says the pingpong run evicts %s events; it evicts %s", sentence[3], got)
	}
}
