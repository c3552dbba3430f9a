package vet_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pta"
	"repro/internal/vet"
)

// TestSharedFactsReadOnly: codegen, pta and vet all read each function's
// stack maps and liveness from ir.Func.Facts, so none of them may write
// through it. After the whole set-up pipeline (compile, pta, vet, a vet for
// load on every architecture) every function's shared facts must still
// equal a fresh Analyze and Liveness of its IR.
func TestSharedFactsReadOnly(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog := compile(t, string(src))
			if _, err := pta.Analyze(prog.IR); err != nil {
				t.Fatal(err)
			}
			vet.Check(prog)
			for _, oc := range prog.Objects {
				for _, ac := range oc.PerArch {
					if ac == nil {
						continue
					}
					if err := vet.VetForLoad(prog, oc, prog.Spec(ac.Arch)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, o := range prog.IR.Objects {
				for _, f := range o.Funcs {
					fi, li, err := f.Facts(o.VarKinds)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ir.Analyze(f, o.VarKinds)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fi, want) {
						t.Errorf("%s: shared stack maps changed during set-up", f.Name)
					}
					if !reflect.DeepEqual(li, ir.Liveness(f, want)) {
						t.Errorf("%s: shared liveness changed during set-up", f.Name)
					}
				}
			}
		})
	}
}

// TestVetForLoadParallel: two systems over one program may vet its code on
// two goroutines, each the first to read a function's facts. The program's
// IR is swapped for a fresh build of the same source, so the facts are
// computed inside the racing loads; under -race, the test fails if that
// computation is not guarded.
func TestVetForLoadParallel(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "producer_consumer.em"))
	if err != nil {
		t.Fatal(err)
	}
	info, prog, err := core.CompileWith(string(src), codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := ir.Build(info)
	for _, oc := range prog.Objects {
		oc.IR = fresh.Object(oc.Name)
	}
	spec := prog.Spec(arch.SPARC)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, oc := range prog.Objects {
				if err := vet.VetForLoad(prog, oc, spec); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("load %d: %v", i, err)
		}
	}
}
