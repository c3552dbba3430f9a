package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

var kilroy = filepath.Join("..", "..", "examples", "programs", "kilroy.em")

// flagNames are the flags a -h listing shows, in its (sorted) order.
func flagNames(help string) []string {
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(help, -1) {
		names = append(names, m[1])
	}
	return names
}

// withRunFlags is own plus every flag core.RegisterFlags defines, sorted:
// what -h must list, so emrun and emtrace show the identical run-flag block
// (core's TestRunFlagsDeclaredOnce pins that its entries have one source).
func withRunFlags(own ...string) []string {
	ref := flag.NewFlagSet("", flag.ContinueOnError)
	core.RegisterFlags(ref)
	ref.VisitAll(func(f *flag.Flag) { own = append(own, f.Name) })
	sort.Strings(own)
	return own
}

func TestHelpListsTheRunFlags(t *testing.T) {
	for _, c := range []struct{ args, own []string }{
		{[]string{"-h"}, []string{"chrome", "metrics", "spans", "text"}},
		{[]string{"faults", "-h"}, nil},
	} {
		var help bytes.Buffer
		if code := run(c.args, io.Discard, &help); code != 0 {
			t.Errorf("emtrace %v: exit %d", c.args, code)
		}
		want := withRunFlags(c.own...)
		if got := flagNames(help.String()); !reflect.DeepEqual(got, want) {
			t.Errorf("emtrace %v lists %v, want its output flags %v and the run flags: %v (a run-shaping flag belongs in core.RegisterFlags)", c.args, got, c.own, want)
		}
	}
}

// TestTraceDirectoryRun: a directory-armed, leased run — untraceable while
// emtrace had its own three flags — exports a loadable Chrome trace showing
// the decree traffic, and metrics counting the decrees.
func TestTraceDirectoryRun(t *testing.T) {
	dir := t.TempDir()
	chrome, metrics := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	var stderr bytes.Buffer
	args := []string{"-dir", "3", "-dir-lease", "2000000", "-chrome", chrome, "-metrics", metrics, kilroy}
	if code := run(args, io.Discard, &stderr); code != 0 {
		t.Fatalf("emtrace %v: exit %d\n%s", args, code, stderr.String())
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

// TestBadCommandLines: retired control-arm flags are unknown, and a bad
// value is reported, not run.
func TestBadCommandLines(t *testing.T) {
	for args, want := range map[string]int{
		"-dir-nogroup " + kilroy:                           2,
		"faults -nosharpen " + kilroy:                      2,
		"-auto-period 5000 " + kilroy:                      2,
		"-mode turbo " + kilroy:                            1,
		"-parallel -auto greedy-colocate -spans " + kilroy: 1,
		"": 2,
	} {
		var stderr bytes.Buffer
		if code := run(strings.Fields(args), io.Discard, &stderr); code != want || stderr.Len() == 0 {
			t.Errorf("emtrace %s: exit %d, want %d; stderr %q", args, code, want, stderr.String())
		}
	}
}
