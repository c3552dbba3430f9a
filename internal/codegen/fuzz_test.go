package codegen

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
)

// FuzzCompile drives the front end and the code generator — parse, type
// check, IR build, compile for every ISA — over arbitrary source, seeded
// with the example corpus. Rejecting a program is fine; panicking is not.
// A compiled program must also keep what the fused executor relies on to
// enter runs only at their heads: every bus stop PC starts a fusion run,
// so a thread parked at a stop resumes at a run head.
func FuzzCompile(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed programs: %v", err)
	}
	for _, p := range seeds {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := parser.Parse(src)
		if err != nil {
			return
		}
		info, err := types.Check(ast)
		if err != nil {
			return
		}
		prog, err := Compile(ir.Build(info))
		if err != nil {
			return
		}
		for _, oc := range prog.Objects {
			for _, ac := range oc.PerArch {
				if ac == nil {
					continue
				}
				for _, fc := range ac.Funcs {
					heads := map[uint32]bool{}
					for _, r := range fc.Runs.Runs {
						heads[r.Head] = true
					}
					for _, s := range fc.Stops.All() {
						if !heads[s.PC] {
							t.Errorf("%s %s [%v]: stop %d at pc %#x starts no run", oc.Name, fc.Name, ac.Arch, s.Stop, s.PC)
						}
					}
				}
			}
		}
	})
}
