package types

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog)
}

func mustCheck(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return info
}

func wantErr(t *testing.T, src, frag string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected type error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not contain %q", err, frag)
	}
}

func TestSlotAssignment(t *testing.T) {
	info := mustCheck(t, `
object M
  operation f(a: Int, b: String) -> (r: Real)
    var x: Int <- a
    var y: Bool <- true
    if y then
      var z: Int <- x
      x <- z
    end
  end
end M
`)
	f := info.FuncOf[info.Objects["M"].Ops[0]]
	if f.NumSlots != 6 {
		t.Fatalf("NumSlots = %d, want 6", f.NumSlots)
	}
	slots := f.Slots()
	wantNames := []string{"a", "b", "r", "x", "y", "z"}
	for i, n := range wantNames {
		if slots[i].Name != n || slots[i].Index != i {
			t.Errorf("slot %d = %s@%d, want %s@%d", i, slots[i].Name, slots[i].Index, n, i)
		}
	}
	if !slots[1].Type.IsPointer() || slots[0].Type.IsPointer() {
		t.Error("pointer-ness wrong for a/b")
	}
	if !slots[2].IsResult {
		t.Error("r should be a result")
	}
}

func TestObjectVarLayout(t *testing.T) {
	info := mustCheck(t, `
object M
  var a: Int
  var b: M
  monitor
    var c: Int
    var cv: Condition
    var dv: Condition
    operation g()
      wait cv
      signal dv
    end
  end
end M
`)
	od := info.Objects["M"]
	vars := info.ObjVars[od]
	if len(vars) != 5 {
		t.Fatalf("vars = %d, want 5", len(vars))
	}
	if !vars[2].Monitored || vars[0].Monitored {
		t.Error("monitored flags wrong")
	}
	if info.NumConds[od] != 2 {
		t.Errorf("NumConds = %d, want 2", info.NumConds[od])
	}
	if vars[3].CondIndex != 0 || vars[4].CondIndex != 1 {
		t.Errorf("cond indices = %d,%d", vars[3].CondIndex, vars[4].CondIndex)
	}
}

func TestFuncInventory(t *testing.T) {
	info := mustCheck(t, `
object A
  operation f()
  end
  process
  end
end A
object B
  operation g()
  end
end B
`)
	names := map[string]bool{}
	for _, f := range info.Funcs {
		names[f.Name] = true
	}
	for _, want := range []string{"A.f", "A.$init", "A.$process", "B.g", "B.$init"} {
		if !names[want] {
			t.Errorf("missing func %s (have %v)", want, names)
		}
	}
	if names["B.$process"] {
		t.Error("B has no process")
	}
}

func TestArithTypes(t *testing.T) {
	info := mustCheck(t, `
object M
  operation f(i: Int, r: Real, s: String) -> (out: Real)
    var a: Int <- i + i
    var b: Real <- i + r
    var c: Real <- r * r
    var d: String <- s + s
    var e: Bool <- i < r
    var g: Bool <- s == s
    out <- b + c
    print(a, d, e, g)
  end
end M
`)
	_ = info
}

func TestAssignabilityErrors(t *testing.T) {
	wantErr(t, `
object M
  operation f() -> (r: Int)
    r <- "no"
  end
end M`, "cannot assign")
	wantErr(t, `
object M
  operation f() -> (r: Int)
    r <- 1.5
  end
end M`, "cannot assign")
	wantErr(t, `
object M
  operation f(b: Bool)
    if b + b then
      return
    end
  end
end M`, "not defined")
}

func TestUndefined(t *testing.T) {
	wantErr(t, `
object M
  operation f()
    x <- 1
  end
end M`, "undefined: x")
	wantErr(t, `
object M
  operation f()
    frob(1)
  end
end M`, "undefined operation or builtin")
	wantErr(t, `
object M
  var v: Nope
end M`, "unknown type")
}

func TestMonitorRules(t *testing.T) {
	wantErr(t, `
object M
  var cv: Condition
end M`, "must be declared in a monitor")
	wantErr(t, `
object M
  monitor
    var c: Int
  end
  operation f() -> (r: Int)
    r <- c
  end
end M`, "outside the monitor")
	wantErr(t, `
object M
  operation f()
    var cv: Condition
  end
end M`, "must be object variables")
	wantErr(t, `
object M
  monitor
    var c: Condition
  end
  operation f()
    wait c
  end
end M`, "outside the monitor")
}

func TestEncapsulation(t *testing.T) {
	wantErr(t, `
object A
  var x: Int
end A
object M
  operation f(a: A) -> (r: Int)
    r <- x
  end
end M`, "undefined: x")
}

func TestFunctionPurity(t *testing.T) {
	wantErr(t, `
object M
  var x: Int
  function f()
    x <- 1
  end
end M`, "may not assign")
}

func TestInvocationChecking(t *testing.T) {
	wantErr(t, `
object A
  operation f(x: Int)
  end
end A
object M
  operation g(a: A)
    a.f("s")
  end
end M`, "cannot use String as Int")
	wantErr(t, `
object A
  operation f(x: Int)
  end
end A
object M
  operation g(a: A)
    a.f(1, 2)
  end
end M`, "takes 1 arguments")
	wantErr(t, `
object A
end A
object M
  operation g(a: A)
    a.nosuch()
  end
end M`, "has no operation")
}

func TestSelfAndBareCalls(t *testing.T) {
	info := mustCheck(t, `
object M
  operation helper(x: Int) -> (r: Int)
    r <- x * 2
  end
  operation f() -> (r: Int)
    r <- helper(21)
    r <- self.helper(r)
  end
end M
`)
	od := info.Objects["M"]
	f := od.Op("f")
	bare := f.Body.Stmts[0].(*ast.AssignStmt).Rhs.(*ast.Invoke)
	tgt := info.TargetOf(bare)
	if tgt == nil || !tgt.OnSelf || tgt.Op == nil {
		t.Fatalf("bare call target = %+v", tgt)
	}
}

func TestBuiltins(t *testing.T) {
	mustCheck(t, `
object M
  process
    var n: Int <- nodes()
    var h: Node <- thisnode()
    var o: Node <- node(n - 1)
    var t: Int <- timems()
    var s: String <- str(t)
    var a: Int <- abs(0 - t)
    yield()
    print(n, h == o, s, a)
  end process
end M
`)
	wantErr(t, `
object M
  process
    var h: Node <- node("x")
  end process
end M`, "cannot use String as Int")
	wantErr(t, `
object M
  process
    var n: Node <- locate(3)
  end process
end M`, "locate requires an object reference")
}

func TestDynamicAny(t *testing.T) {
	info := mustCheck(t, `
object M
  operation f(x: Any) -> (r: Any)
    r <- x
    x.anything(1, 2, 3)
  end
end M
`)
	inv := info.Objects["M"].Ops[0].Body.Stmts[1].(*ast.ExprStmt).X.(*ast.Invoke)
	if !info.TargetOf(inv).Dynamic {
		t.Error("Any invocation should be dynamic")
	}
}

func TestNewChecks(t *testing.T) {
	mustCheck(t, `
object P
  var x: Int
  var s: String
end P
object M
  process
    var p: P <- new P(1, "a")
    var a: Array[Int] <- new Array[Int](4)
    a[0] <- 1
    print(p, a)
  end process
end M`)
}

func TestNewErrors(t *testing.T) {
	wantErr(t, `
object P
  var x: Int
end P
object M
  process
    var p: P <- new P(1, 2)
  end process
end M`, "2 arguments for 1 object variables")
	wantErr(t, `
object P
  var x: Int
end P
object M
  process
    var p: P <- new P("s")
  end process
end M`, "argument 1 has type String")
	wantErr(t, `
object M
  process
    var a: Array[Int] <- new Array[Int](1, 2)
  end process
end M`, "exactly one length")
}

func TestExitOutsideLoop(t *testing.T) {
	wantErr(t, `
object M
  operation f()
    exit
  end
end M`, "exit outside loop")
}

func TestMoveRequiresRef(t *testing.T) {
	wantErr(t, `
object M
  process
    move 3 to thisnode()
  end process
end M`, "move requires an object reference")
	wantErr(t, `
object M
  process
    var o: M <- new M
    move o to 3
  end process
end M`, "expected Node")
}

func TestNilAssignment(t *testing.T) {
	mustCheck(t, `
object M
  var o: M
  operation f()
    o <- nil
    if o == nil then
      o <- new M
    end
  end
end M
`)
	wantErr(t, `
object M
  operation f() -> (r: Int)
    r <- nil
  end
end M`, "cannot assign")
}

func TestIndexTypes(t *testing.T) {
	mustCheck(t, `
object M
  operation f(a: Array[String], s: String) -> (r: Int)
    r <- s[0] + a.size() + a[1].size()
  end
end M
`)
	wantErr(t, `
object M
  operation f(x: Int) -> (r: Int)
    r <- x[0]
  end
end M`, "cannot index")
}

func TestRedeclarations(t *testing.T) {
	wantErr(t, `
object M
end M
object M
end M`, "redeclared")
	wantErr(t, `
object M
  operation f()
  end
  operation f()
  end
end M`, "operation f redeclared")
	wantErr(t, `
object M
  var x: Int
  var x: Int
end M`, "object variable x redeclared")
	wantErr(t, `
object M
  operation f()
    var x: Int
    var x: Int
  end
end M`, "redeclared in this scope")
}

func TestShadowingInNestedScopesAllowed(t *testing.T) {
	info := mustCheck(t, `
object M
  operation f() -> (r: Int)
    var x: Int <- 1
    if true then
      var x: Int <- 2
      r <- x
    end
    r <- r + x
  end
end M
`)
	f := info.FuncOf[info.Objects["M"].Ops[0]]
	if len(f.Locals) != 2 {
		t.Fatalf("locals = %d, want 2 (both x's get slots)", len(f.Locals))
	}
}

// eachExpr calls f for every expression node reachable from v. It finds
// them by reflection, so a new node type needs no case here.
func eachExpr(v reflect.Value, f func(ast.Expr)) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if e, ok := v.Interface().(ast.Expr); ok {
			f(e)
		}
		eachExpr(v.Elem(), f)
	case reflect.Interface:
		if !v.IsNil() {
			eachExpr(v.Elem(), f)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			eachExpr(v.Field(i), f)
		}
	case reflect.Slice:
		for i := range v.Len() {
			eachExpr(v.Index(i), f)
		}
	}
}

// TestFactsCoverExamples checks, over every example program, that the
// checker recorded a type for every expression number, a symbol for every
// identifier and a target for every invocation: the facts ir.Build reads.
func TestFactsCoverExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "programs", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		info := mustCheck(t, string(src))
		if len(info.facts) != info.Program.NumExprs {
			t.Fatalf("%s: %d facts for %d expressions", file, len(info.facts), info.Program.NumExprs)
		}
		for n, f := range info.facts {
			if f.typ == nil {
				t.Errorf("%s: expression %d has no type", file, n)
			}
		}
		eachExpr(reflect.ValueOf(info.Program), func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.Ident:
				if info.UseOf(e) == nil {
					t.Errorf("%s: identifier %s at %s has no symbol", file, e.Name, e.Pos())
				}
			case *ast.Invoke:
				if info.TargetOf(e) == nil {
					t.Errorf("%s: invocation %s at %s has no target", file, e.OpName, e.Pos())
				}
			}
		})
	}
}
