package main

import (
	"bytes"
	"flag"
	"io"
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
	var help bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &help); code != 0 {
		t.Errorf("emrun -h: exit %d", code)
	}
	want := withRunFlags("auto-log", "cpuprofile", "memprofile", "stats", "trace")
	if got := flagNames(help.String()); !reflect.DeepEqual(got, want) {
		t.Errorf("emrun -h lists %v, want its five output flags and the run flags %v (a run-shaping flag belongs in core.RegisterFlags)", got, want)
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

// TestBadCommandLines: retired control-arm flags are unknown, a bad value
// is reported, not run, and the parallel engine refuses the text trace (a
// plain callback) rather than print part of the stream.
func TestBadCommandLines(t *testing.T) {
	for args, want := range map[string]struct {
		code   int
		stderr string // "": any non-empty report
	}{
		"-nosharpen " + kilroy:                      {2, ""},
		"-dir-nogroup " + kilroy:                    {2, ""},
		"-auto-period 5000 " + kilroy:               {2, ""},
		"-net pdp11 " + kilroy:                      {2, ""},
		"-parallel -auto greedy-colocate " + kilroy: {1, ""},
		"-trace -parallel " + kilroy:                {1, "emrun: kernel: the text trace (-trace) requires the sequential engine\n"},
		"":                                          {2, ""},
	} {
		var stderr bytes.Buffer
		code := run(strings.Fields(args), io.Discard, &stderr)
		if code != want.code || stderr.Len() == 0 || want.stderr != "" && stderr.String() != want.stderr {
			t.Errorf("emrun %s: exit %d, stderr %q; want exit %d, stderr %q", args, code, stderr.String(), want.code, want.stderr)
		}
	}
}
