package parser

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lang/ast"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return prog
}

func wantErr(t *testing.T, src, frag string) {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("expected parse error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not contain %q", err, frag)
	}
}

const counterSrc = `
object Counter
  monitor
    var count: Int <- 0
    var nonzero: Condition
    operation inc(n: Int) -> (r: Int)
      count <- count + n
      signal nonzero
      r <- count
    end inc
    operation take() -> (r: Int)
      while count == 0 do
        wait nonzero
      end
      count <- count - 1
      r <- count
    end take
  end monitor
end Counter

object Main
  var c: Counter
  initially
    c <- new Counter
  end initially
  process
    var x: Int <- c.inc(3)
    print("got ", x)
  end process
end Main
`

func TestParseCounter(t *testing.T) {
	prog := mustParse(t, counterSrc)
	if len(prog.Objects) != 2 {
		t.Fatalf("objects = %d, want 2", len(prog.Objects))
	}
	c := prog.Objects[0]
	if c.Name != "Counter" || c.Monitor == nil {
		t.Fatalf("Counter malformed: %+v", c)
	}
	if len(c.Monitor.Vars) != 2 || len(c.Monitor.Ops) != 2 {
		t.Fatalf("monitor: %d vars %d ops", len(c.Monitor.Vars), len(c.Monitor.Ops))
	}
	inc := c.Op("inc")
	if inc == nil || !inc.Monitored || len(inc.Params) != 1 || len(inc.Results) != 1 {
		t.Fatalf("inc malformed: %+v", inc)
	}
	m := prog.Objects[1]
	if m.Initially == nil || m.Process == nil || len(m.Vars) != 1 {
		t.Fatalf("Main malformed")
	}
}

func TestParseMobilityStatements(t *testing.T) {
	prog := mustParse(t, `
object M
  process
    var o: M <- new M
    move o to node(1)
    fix o at thisnode()
    refix o at node(0)
    unfix o
    var where: Node <- locate(o)
    print(where)
  end process
end M
`)
	stmts := prog.Objects[0].Process.Stmts
	if _, ok := stmts[1].(*ast.MoveStmt); !ok {
		t.Errorf("stmt 1 = %T, want MoveStmt", stmts[1])
	}
	if fx, ok := stmts[2].(*ast.FixStmt); !ok || fx.Refix {
		t.Errorf("stmt 2 = %T (refix=%v), want fix", stmts[2], ok)
	}
	if fx, ok := stmts[3].(*ast.FixStmt); !ok || !fx.Refix {
		t.Errorf("stmt 3 = %T, want refix", stmts[3])
	}
	if _, ok := stmts[4].(*ast.UnfixStmt); !ok {
		t.Errorf("stmt 4 = %T, want UnfixStmt", stmts[4])
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := mustParse(t, `
object M
  operation f() -> (r: Int)
    r <- 1 + 2 * 3
  end
end M
`)
	op := prog.Objects[0].Ops[0]
	as := op.Body.Stmts[0].(*ast.AssignStmt)
	add, ok := as.Rhs.(*ast.Binary)
	if !ok {
		t.Fatalf("rhs = %T", as.Rhs)
	}
	if _, ok := add.Y.(*ast.Binary); !ok {
		t.Fatalf("2*3 should bind tighter: %T", add.Y)
	}
}

func TestParseBoolPrecedence(t *testing.T) {
	prog := mustParse(t, `
object M
  operation f(a: Int, b: Int) -> (r: Bool)
    r <- a < 1 & b > 2 | a == b
  end
end M
`)
	as := prog.Objects[0].Ops[0].Body.Stmts[0].(*ast.AssignStmt)
	or, ok := as.Rhs.(*ast.Binary)
	if !ok || or.Op.String() != "|" {
		t.Fatalf("top = %v, want |", as.Rhs)
	}
}

func TestParseIfChain(t *testing.T) {
	prog := mustParse(t, `
object M
  operation f(x: Int) -> (r: Int)
    if x == 0 then
      r <- 1
    elseif x == 1 then
      r <- 2
    elseif x == 2 then
      r <- 3
    else
      r <- 4
    end if
  end
end M
`)
	ifs := prog.Objects[0].Ops[0].Body.Stmts[0].(*ast.IfStmt)
	if len(ifs.Elifs) != 2 || ifs.Else == nil {
		t.Fatalf("elifs=%d else=%v", len(ifs.Elifs), ifs.Else != nil)
	}
}

func TestParseLoops(t *testing.T) {
	prog := mustParse(t, `
object M
  operation f() -> (r: Int)
    loop
      r <- r + 1
      exit when r > 10
    end loop
    while r > 0 do
      r <- r - 1
      exit
    end while
  end
end M
`)
	body := prog.Objects[0].Ops[0].Body
	lp := body.Stmts[0].(*ast.LoopStmt)
	ex := lp.Body.Stmts[1].(*ast.ExitStmt)
	if ex.When == nil {
		t.Error("exit when lost its condition")
	}
	wl := body.Stmts[1].(*ast.WhileStmt)
	if wl.Cond == nil || len(wl.Body.Stmts) != 2 {
		t.Error("while malformed")
	}
}

func TestParseChainedInvocationsAndIndex(t *testing.T) {
	prog := mustParse(t, `
object M
  operation f(a: Array[Int]) -> (r: Int)
    r <- a[a[0]] + a.size()
    a[1] <- r
  end
end M
`)
	body := prog.Objects[0].Ops[0].Body
	as := body.Stmts[0].(*ast.AssignStmt)
	add := as.Rhs.(*ast.Binary)
	idx := add.X.(*ast.Index)
	if _, ok := idx.I.(*ast.Index); !ok {
		t.Errorf("nested index = %T", idx.I)
	}
	if inv, ok := add.Y.(*ast.Invoke); !ok || inv.OpName != "size" {
		t.Errorf("size call = %v", add.Y)
	}
	as2 := body.Stmts[1].(*ast.AssignStmt)
	if _, ok := as2.Lhs.(*ast.Index); !ok {
		t.Errorf("indexed lhs = %T", as2.Lhs)
	}
}

func TestParseNewForms(t *testing.T) {
	prog := mustParse(t, `
object P
  var x: Int
end P
object M
  process
    var p: P <- new P(5)
    var q: P <- new P
    var a: Array[Real] <- new Array[Real](10)
    print(p, q, a)
  end process
end M
`)
	stmts := prog.Objects[1].Process.Stmts
	n := stmts[0].(*ast.DeclStmt).Decl.Init.(*ast.New)
	if len(n.Args) != 1 {
		t.Errorf("new P(5) args = %d", len(n.Args))
	}
	n2 := stmts[1].(*ast.DeclStmt).Decl.Init.(*ast.New)
	if len(n2.Args) != 0 {
		t.Errorf("new P args = %d", len(n2.Args))
	}
	n3 := stmts[2].(*ast.DeclStmt).Decl.Init.(*ast.New)
	if n3.Type.Name != "Array" || n3.Type.Elem.Name != "Real" {
		t.Errorf("array type = %v", n3.Type)
	}
}

func TestParseImmutable(t *testing.T) {
	prog := mustParse(t, `
immutable object K
  operation f() -> (r: Int)
    r <- 42
  end
end K
`)
	if !prog.Objects[0].Immutable {
		t.Error("immutable flag lost")
	}
}

func TestParseErrors(t *testing.T) {
	wantErr(t, "object", "expected identifier")
	wantErr(t, "object M end X", "does not match object")
	wantErr(t, "frobnicate", "expected object declaration")
	wantErr(t, `
object M
  operation f() -> (r: Int)
    1 + 2
  end
end M`, "must be an invocation")
	wantErr(t, `
object M
  operation f() -> (r: Int)
    1 <- r
  end
end M`, "left side of <-")
	wantErr(t, `
object M
  monitor
    var x: Int
  end monitor
  var z: Int
  monitor
    var y: Int
  end monitor
end M`, "more than one monitor")
	wantErr(t, `
object M
  process
  end process
  process
  end process
end M`, "more than one process")
}

func TestParseErrorRecovery(t *testing.T) {
	// Multiple errors should all be reported, not just the first.
	_, err := Parse(`
object M
  operation f( -> (r: Int)
  end
end M
object N
  operation g() -> r: Int)
  end
end N
`)
	if err == nil {
		t.Fatal("expected errors")
	}
	if !strings.Contains(err.Error(), "more error") {
		t.Logf("single error: %v (acceptable)", err)
	}
}

func TestParseUnaryChain(t *testing.T) {
	prog := mustParse(t, `
object M
  operation f(x: Int, b: Bool) -> (r: Int)
    r <- - -x
    if !(!b) then
      r <- 0
    end
  end
end M
`)
	as := prog.Objects[0].Ops[0].Body.Stmts[0].(*ast.AssignStmt)
	u := as.Rhs.(*ast.Unary)
	if _, ok := u.X.(*ast.Unary); !ok {
		t.Errorf("double negation = %T", u.X)
	}
}

func TestTrailingNamesOptional(t *testing.T) {
	mustParse(t, `
object M
  operation f()
  end
  process
  end
end
`)
}

func TestQuickParserNeverPanics(t *testing.T) {
	// The parser must survive arbitrary input: errors, never panics or
	// non-termination.
	prop := func(src string) bool {
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// And keyword-dense garbage specifically.
	frags := []string{"object", "end", "if", "then", "monitor", "process",
		"<-", "(", ")", "x", "1", "\"s", "var", ":", "Int", "while", "do", "%"}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		var b strings.Builder
		for i := 0; i < rng.Intn(40); i++ {
			b.WriteString(frags[rng.Intn(len(frags))])
			b.WriteByte(' ')
		}
		_, _ = Parse(b.String())
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

// TestExprNumbering checks that the expressions of every example program
// are numbered 0 to NumExprs-1, each number used once: the type checker
// keeps its facts in slices indexed by these numbers.
func TestExprNumbering(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "programs", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog := mustParse(t, string(src))
		used := make([]bool, prog.NumExprs)
		exprs := 0
		eachExpr(reflect.ValueOf(prog), func(e ast.Expr) {
			exprs++
			switch n := e.ExprNum(); {
			case n < 0 || n >= len(used):
				t.Errorf("%s: %T at %s numbered %d, outside 0..%d", file, e, e.Pos(), n, len(used)-1)
			case used[n]:
				t.Errorf("%s: %T at %s reuses number %d", file, e, e.Pos(), n)
			default:
				used[n] = true
			}
		})
		if exprs != prog.NumExprs {
			t.Errorf("%s: %d expressions, NumExprs %d", file, exprs, prog.NumExprs)
		}
	}
}
