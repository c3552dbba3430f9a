// Golden tests over the negative corpus in testdata/: each fixture either
// carries its defect in the source (the lint fixtures) or is compiled clean
// and then deliberately corrupted in memory (the metadata fixtures), and the
// full diagnostic output is pinned against a .golden file. Regenerate with
//
//	go test ./internal/vet -run TestGolden -update
package vet_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/busstop"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/vet"
)

var update = flag.Bool("update", false, "rewrite the .golden files")

// corruptions maps fixture name to the in-memory tampering applied after a
// clean compile. Fixtures not listed here carry their defect in the source.
var corruptions = map[string]func(t *testing.T, prog *codegen.Program){
	"skewed_stops": func(t *testing.T, prog *codegen.Program) {
		restop(t, vaxFunc(t, prog, "Counter"), func(stops []busstop.Info) {
			stops[0].TempDepth++
			stops[0].TempKinds = append(stops[0].TempKinds, ir.VKInt)
		})
	},
	"cleared_live_bit": func(t *testing.T, prog *codegen.Program) {
		restop(t, vaxFunc(t, prog, "Counter"), func(stops []busstop.Info) {
			if stops[0].LiveVars == 0 {
				t.Fatal("first Counter.bump stop has no live slots to clear")
			}
			stops[0].LiveVars &= stops[0].LiveVars - 1 // clear lowest set bit
		})
	},
	"wrong_template_kind": func(t *testing.T, prog *codegen.Program) {
		fc := vaxFunc(t, prog, "Holder")
		if len(fc.Template.Vars) == 0 {
			t.Fatal("Holder.keep has no variable homes")
		}
		fc.Template.Vars[0].Kind = ir.VKPtr
	},
}

func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, file := range files {
		file := file
		name := strings.TrimSuffix(filepath.Base(file), ".em")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog := compile(t, string(src))
			if corrupt, ok := corruptions[name]; ok {
				mustClean(t, prog) // the defect is the corruption, not the source
				corrupt(t, prog)
			}
			var b strings.Builder
			for _, d := range vet.Check(prog) {
				fmt.Fprintln(&b, d)
			}
			got := b.String()
			if got == "" {
				t.Fatalf("fixture %s produced no diagnostics", name)
			}
			goldenPath := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s",
					goldenPath, got, want)
			}
		})
	}
}

// TestGoldenPassCoverage pins which pass flags each fixture, independent of
// message wording: the corpus must keep exercising every advertised pass
// family even if diagnostics are reworded.
func TestGoldenPassCoverage(t *testing.T) {
	wantPasses := map[string]string{
		"dead_store":          "dead-store",
		"unassigned":          "definite-assignment",
		"unreachable":         "unreachable-code",
		"reentrancy":          "monitor-reentrancy",
		"skewed_stops":        "liveness-consistency",
		"cleared_live_bit":    "liveness-consistency",
		"wrong_template_kind": "template-coverage",
		"escaping_local":      "ptr-escape",
		"dead_ptr_at_stop":    "dead-ptr-at-stop",
		"immobile_reach":      "immobile-reach",
	}
	for name, pass := range wantPasses {
		name, pass := name, pass
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", name+".em"))
			if err != nil {
				t.Fatal(err)
			}
			prog := compile(t, string(src))
			if corrupt, ok := corruptions[name]; ok {
				corrupt(t, prog)
			}
			diags := vet.Check(prog)
			if !passNames(diags)[pass] {
				t.Errorf("fixture %s not flagged by %s; diagnostics:", name, pass)
				for _, d := range diags {
					t.Errorf("  %s", d)
				}
			}
		})
	}
}

// TestExamplesGolden pins every diagnostic, all severities, that vet
// reports over the shipped example corpus, one "file: diagnostic" line
// each, in testdata/examples.golden. TestExamplesClean only bars
// warnings and errors; this also holds the info-severity findings and
// their order. Regenerate with
//
//	go test ./internal/vet -run TestExamplesGolden -update
func TestExamplesGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	var b strings.Builder
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range vet.Check(compile(t, string(src))) {
			fmt.Fprintf(&b, "%s: %s\n", filepath.Base(file), d)
		}
	}
	got := b.String()
	goldenPath := filepath.Join("testdata", "examples.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}
