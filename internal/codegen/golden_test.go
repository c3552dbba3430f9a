package codegen_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
)

var update = flag.Bool("update", false, "rewrite testdata/compile.golden")

// TestCompileGolden pins the compiler's output on the corpus: one sha256
// per program and option set over every architecture's code bytes,
// instruction count, activation template and bus-stop table. A change that
// claims to leave code generation alone leaves testdata/compile.golden
// byte-identical; a deliberate one regenerates it with
//
//	go test ./internal/codegen -run TestCompileGolden -update
func TestCompileGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	type source struct{ name, src string }
	var corpus []source
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, source{filepath.Base(file), string(src)})
	}
	corpus = append(corpus, source{"mobile13", exp.Mobile13Source})
	arms := []struct {
		name string
		opts codegen.Options
	}{
		{"default", codegen.Options{}},
		{"nopolls", codegen.Options{OmitLoopPolls: true}},
	}
	var b strings.Builder
	for _, s := range corpus {
		ast, err := parser.Parse(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		info, err := types.Check(ast)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, arm := range arms {
			prog, err := codegen.CompileWithOptions(ir.Build(info), arm.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, arm.name, err)
			}
			h := sha256.New()
			hashProgram(h, prog)
			fmt.Fprintf(&b, "%s %s %x\n", s.name, arm.name, h.Sum(nil))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "compile.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("compiled corpus differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// hashProgram writes everything the loader and the kernel read of each
// architecture's code: bytes, instruction count, activation template and
// every field of every bus stop.
func hashProgram(h hash.Hash, p *codegen.Program) {
	for _, oc := range p.Objects {
		for _, ac := range oc.PerArch {
			if ac == nil {
				continue
			}
			for _, fc := range ac.Funcs {
				fmt.Fprintf(h, "%s %s %v %d %x\n", oc.Name, fc.Name, ac.Arch, fc.NumInstrs, fc.Code)
				fmt.Fprintf(h, "%+v\n", *fc.Template)
				for _, s := range fc.Stops.All() {
					fmt.Fprintf(h, "%d %#x %v pushes=%v rk=%v temps=%v live=%#x exit=%v\n",
						s.Stop, s.PC, s.Kind, s.Pushes, s.ResultKind, s.TempKinds, s.LiveVars, s.ExitOnly)
				}
			}
		}
	}
}
