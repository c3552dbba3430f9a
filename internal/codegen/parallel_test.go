package codegen

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
)

// buildIR runs the front end over src. Each call returns a fresh IR
// program, so no compile reuses the facts another one computed.
func buildIR(t *testing.T, src string) *ir.Program {
	t.Helper()
	ast, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(ast)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return ir.Build(info)
}

// workOf is the program's size as Compile measures it against
// parallelMinWork.
func workOf(p *ir.Program) int {
	n := 0
	for _, o := range p.Objects {
		for _, f := range o.Funcs {
			n += len(f.Code)
		}
	}
	return n * len(arch.AllSpecs())
}

// callChains is a program of objs objects whose processes each make calls
// calls in a row, then, when loop is set, run a loop: past 64 KB of
// straight-line code its branch targets no longer encode.
func callChains(objs, calls int, loop bool) string {
	var b strings.Builder
	b.WriteString("object Svc\n  operation f(x: Int) -> (r: Int)\n    r <- x + 1\n  end\nend Svc\n")
	for o := range objs {
		fmt.Fprintf(&b, "object M%d\n  process\n    var s: Svc <- new Svc\n    var t: Int <- 0\n", o)
		for i := range calls {
			fmt.Fprintf(&b, "    t <- s.f(t + %d)\n", i)
		}
		if loop {
			b.WriteString("    while t > 0 do\n      t <- t - 1\n    end\n")
		}
		fmt.Fprintf(&b, "    print(t)\n  end process\nend M%d\n", o)
	}
	return b.String()
}

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestCompileIdenticalAcrossGOMAXPROCS: a compile's output does not depend
// on how many goroutines lowered it. Every corpus program (below the
// crossover, so serial) and a synthesized one above it compile at
// GOMAXPROCS 1, 2 and 4, and every FuncCode field but the fuse cache, and
// every other ObjectCode field, equals the GOMAXPROCS 1 compile's.
func TestCompileIdenticalAcrossGOMAXPROCS(t *testing.T) {
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
	big := callChains(4, 40, false)
	if w := workOf(buildIR(t, big)); w < parallelMinWork {
		t.Fatalf("synthesized program: work %d is below the crossover %d", w, parallelMinWork)
	}
	corpus = append(corpus, source{"callChains", big})
	for _, s := range corpus {
		var want *Program
		for _, procs := range []int{1, 2, 4} {
			var got *Program
			withProcs(procs, func() {
				if got, err = Compile(buildIR(t, s.src)); err != nil {
					t.Fatalf("%s at GOMAXPROCS %d: %v", s.name, procs, err)
				}
			})
			if want == nil {
				want = got
				continue
			}
			if d := diffPrograms(want, got); d != "" {
				t.Errorf("%s at GOMAXPROCS %d differs from 1: %s", s.name, procs, d)
			}
		}
	}
}

// diffPrograms names the first field in which b's compiled code differs
// from a's, or returns "".
func diffPrograms(a, b *Program) string {
	if len(a.Objects) != len(b.Objects) {
		return fmt.Sprintf("%d objects vs %d", len(a.Objects), len(b.Objects))
	}
	for i, oa := range a.Objects {
		ob := b.Objects[i]
		if oa.Name != ob.Name || oa.Index != ob.Index || oa.CodeOID != ob.CodeOID ||
			oa.HasProcess != ob.HasProcess || !reflect.DeepEqual(oa.Template, ob.Template) {
			return fmt.Sprintf("object %d: %s vs %s", i, oa.Name, ob.Name)
		}
		for id, aa := range oa.PerArch {
			ab := ob.PerArch[id]
			if (aa == nil) != (ab == nil) {
				return fmt.Sprintf("%s: arch %d present in one program only", oa.Name, id)
			}
			if aa == nil {
				continue
			}
			if aa.Arch != ab.Arch || len(aa.Funcs) != len(ab.Funcs) {
				return fmt.Sprintf("%s %v: arch or function count", oa.Name, aa.Arch)
			}
			for j, fa := range aa.Funcs {
				va, vb := reflect.ValueOf(fa).Elem(), reflect.ValueOf(ab.Funcs[j]).Elem()
				for k := range va.NumField() {
					name := va.Type().Field(k).Name
					if name == "fuseOnce" || name == "fused" {
						continue
					}
					if !reflect.DeepEqual(fieldOf(va, k), fieldOf(vb, k)) {
						return fmt.Sprintf("%s %s %v: field %s", oa.Name, fa.Name, aa.Arch, name)
					}
				}
			}
		}
	}
	return ""
}

// fieldOf returns field k of struct value v as an interface value.
func fieldOf(v reflect.Value, k int) any {
	f := v.Field(k)
	if !f.CanInterface() {
		panic(fmt.Sprintf("FuncCode.%s is unexported: name it in diffPrograms", v.Type().Field(k).Name))
	}
	return f.Interface()
}

// TestCompileErrorIsSerialOrder: when several functions fail, a parallel
// compile reports the error a serial one does: the first failing job in
// object, target, function order, and a lowering error of an earlier
// object before the verification error of a later one.
func TestCompileErrorIsSerialOrder(t *testing.T) {
	// Each process branches past 64 KB of code on every target.
	src := callChains(2, 3000, true)
	breakFacts := func(p *ir.Program, obj string) {
		f := p.Object(obj).Process()
		f.Code = f.Code[:len(f.Code)-1] // no longer ends in ret or jump
	}
	cases := []struct {
		name   string
		tamper func(*ir.Program)
		want   string
	}{
		{"two lowering errors", func(*ir.Program) {}, "M0.$process"},
		{"lowering before facts", func(p *ir.Program) { breakFacts(p, "M1") }, "M0.$process on "},
		{"facts before lowering", func(p *ir.Program) { breakFacts(p, "M0") }, "must end in ret or jump"},
	}
	for _, c := range cases {
		var serial string
		for _, procs := range []int{1, 2, 4} {
			p := buildIR(t, src)
			c.tamper(p)
			if procs > 1 && workOf(p) < parallelMinWork {
				t.Fatalf("%s: work %d is below the crossover", c.name, workOf(p))
			}
			var err error
			withProcs(procs, func() { _, err = Compile(p) })
			if err == nil {
				t.Fatalf("%s at GOMAXPROCS %d: compiled", c.name, procs)
			}
			if procs == 1 {
				serial = err.Error()
				if !strings.Contains(serial, c.want) {
					t.Fatalf("%s: serial error %q does not name %q", c.name, serial, c.want)
				}
				continue
			}
			if err.Error() != serial {
				t.Errorf("%s at GOMAXPROCS %d: error %q, serial %q", c.name, procs, err, serial)
			}
		}
	}
}

// countWorkers makes goWorker count the goroutines it starts until the
// test ends.
func countWorkers(t *testing.T) *atomic.Int32 {
	var n atomic.Int32
	prev := goWorker
	goWorker = func(f func()) {
		n.Add(1)
		prev(f)
	}
	t.Cleanup(func() { goWorker = prev })
	return &n
}

// TestCompileLeavesNoGoroutines: a parallel compile's workers have all
// exited once Compile has returned (a worker may still be unwinding past
// its last job for a moment, hence the wait).
func TestCompileLeavesNoGoroutines(t *testing.T) {
	started := countWorkers(t)
	p := buildIR(t, callChains(4, 40, false))
	base := runtime.NumGoroutine()
	withProcs(4, func() {
		if _, err := Compile(p); err != nil {
			t.Fatal(err)
		}
	})
	if started.Load() == 0 {
		t.Fatal("the compile started no worker: the test program is below the crossover")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Compile, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSmallCompileStartsNoGoroutine: a program below the crossover, every
// corpus program among them, compiles on the caller alone.
func TestSmallCompileStartsNoGoroutine(t *testing.T) {
	started := countWorkers(t)
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p := buildIR(t, string(src))
		if w := workOf(p); w >= parallelMinWork {
			t.Fatalf("%s: work %d is not below the crossover %d", file, w, parallelMinWork)
		}
		withProcs(4, func() {
			if _, err := Compile(p); err != nil {
				t.Fatal(err)
			}
		})
		if n := started.Load(); n != 0 {
			t.Fatalf("%s: the compile started %d goroutines", file, n)
		}
	}
}
