package ir

import (
	"strings"
	"testing"

	"repro/internal/lang/parser"
	"repro/internal/lang/types"
)

// compile parses, checks and lowers src, verifying every function.
func compile(t *testing.T, src string) (*Program, map[*Func]*FuncInfo) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p := Build(info)
	fis := map[*Func]*FuncInfo{}
	for _, o := range p.Objects {
		for _, f := range o.Funcs {
			fi, err := Analyze(f, o.VarKinds)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			fis[f] = fi
		}
	}
	return p, fis
}

func TestBuildCounter(t *testing.T) {
	p, fis := compile(t, `
object Counter
  monitor
    var count: Int <- 0
    var nonzero: Condition
    operation inc(n: Int) -> (r: Int)
      count <- count + n
      signal nonzero
      r <- count
    end inc
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
`)
	counter := p.Object("Counter")
	if counter == nil {
		t.Fatal("no Counter object")
	}
	inc := counter.Funcs[counter.FuncIndex("inc")]
	if !inc.Monitored {
		t.Error("inc should be monitored")
	}
	if inc.NumParams != 1 || inc.NumResults != 1 || inc.NumVars != 2 {
		t.Errorf("inc shape: params=%d results=%d vars=%d", inc.NumParams, inc.NumResults, inc.NumVars)
	}
	if counter.MonitoredFrom != 0 || counter.NumConds != 1 {
		t.Errorf("layout: monitoredFrom=%d conds=%d", counter.MonitoredFrom, counter.NumConds)
	}
	main := p.Object("Main")
	if main.Init() == nil || main.Process() == nil {
		t.Fatal("Main missing $init or $process")
	}
	if main.FuncIndex("$initially") < 0 {
		t.Fatal("Main missing $initially")
	}
	// The process calls c.inc then print.
	proc := main.Process()
	var haveCall, havePrint bool
	for _, in := range proc.Code {
		if in.Op == Call && proc.Strings[in.S] == "inc" {
			haveCall = true
		}
		if in.Op == SysPrint {
			havePrint = true
			if proc.Strings[in.S] != "si" {
				t.Errorf("print kinds = %q, want \"si\"", proc.Strings[in.S])
			}
		}
	}
	if !haveCall || !havePrint {
		t.Errorf("process missing call(%v)/print(%v)\n%s", haveCall, havePrint, Dump(proc))
	}
	_ = fis
}

func TestInitOrdering(t *testing.T) {
	p, _ := compile(t, `
object M
  var a: Int <- 10
  monitor
    var cv: Condition
    var dv: Condition
  end
end M
`)
	m := p.Object("M")
	init := m.Init()
	// Condition indices stored first, then initializers.
	var stores []int32
	for _, in := range init.Code {
		if in.Op == StoreMine {
			stores = append(stores, in.A)
		}
	}
	if len(stores) != 3 {
		t.Fatalf("init stores = %v, want cond slots then a\n%s", stores, Dump(init))
	}
	if stores[0] != 1 || stores[1] != 2 || stores[2] != 0 {
		t.Errorf("store order = %v", stores)
	}
}

func TestStackMapsAtBusStops(t *testing.T) {
	p, fis := compile(t, `
object A
  operation f(x: Int) -> (r: Int)
    r <- x
  end
end A
object M
  process
    var a: A <- new A
    var total: Int <- a.f(1) + a.f(2)
    print(total)
  end process
end M
`)
	proc := p.Object("M").Process()
	fi := fis[proc]
	// Find the second Call: at that point the first call's result (an int)
	// is live on the evaluation stack below the receiver+args, so the
	// stack before the call is [int, ptr, int].
	calls := 0
	for pc, in := range proc.Code {
		if in.Op != Call {
			continue
		}
		calls++
		if calls == 2 {
			st := fi.Stack(pc)
			want := []VK{VKInt, VKPtr, VKInt}
			if len(st) != len(want) {
				t.Fatalf("stack at 2nd call = %v, want %v", st, want)
			}
			for i := range want {
				if st[i] != want[i] {
					t.Fatalf("stack at 2nd call = %v, want %v", st, want)
				}
			}
		}
	}
	if calls < 2 {
		t.Fatalf("found %d calls\n%s", calls, Dump(proc))
	}
	if fi.MaxStack < 3 {
		t.Errorf("MaxStack = %d, want >= 3", fi.MaxStack)
	}
}

func TestControlFlowShapes(t *testing.T) {
	p, fis := compile(t, `
object M
  operation f(x: Int) -> (r: Int)
    if x == 0 then
      r <- 1
    elseif x == 1 then
      r <- 2
    else
      r <- 3
    end
    loop
      r <- r + 1
      exit when r > 5
    end
    while r > 0 do
      r <- r - 1
    end
  end
end M
`)
	f := p.Object("M").Funcs[0]
	fi := fis[f]
	// All reachable instructions have consistent empty-or-known stacks; the
	// function must contain exactly two LoopBottom bus stops.
	lb := 0
	for _, in := range f.Code {
		if in.Op == LoopBottom {
			lb++
		}
	}
	if lb != 2 {
		t.Errorf("loop bottoms = %d, want 2\n%s", lb, Dump(f))
	}
	_ = fi
}

func TestImplicitConversions(t *testing.T) {
	p, _ := compile(t, `
object M
  operation f(i: Int, r: Real) -> (out: Real)
    out <- i + r
    out <- r + i
    out <- i
    var b: Bool <- i < r
    print(b)
  end
end M
`)
	f := p.Object("M").Funcs[0]
	cvt := 0
	for _, in := range f.Code {
		if in.Op == CvtIR {
			cvt++
		}
	}
	if cvt != 4 {
		t.Errorf("CvtIR count = %d, want 4\n%s", cvt, Dump(f))
	}
}

func TestStringOps(t *testing.T) {
	p, _ := compile(t, `
object M
  operation f(s: String) -> (r: Int)
    var u: String <- s + "x"
    if u == "abcx" then
      r <- u.size() + s[0]
    end
  end
end M
`)
	f := p.Object("M").Funcs[0]
	var ops []Op
	for _, in := range f.Code {
		switch in.Op {
		case SysConcat, CmpS, SLen, SIndex:
			ops = append(ops, in.Op)
		}
	}
	if len(ops) != 4 {
		t.Errorf("string ops = %v\n%s", ops, Dump(f))
	}
}

func TestArrays(t *testing.T) {
	p, fis := compile(t, `
object M
  operation f() -> (r: Real)
    var a: Array[Real] <- new Array[Real](3)
    a[0] <- 1.5
    a[1] <- 2
    r <- a[0] + a[1]
    var n: Int <- a.size()
    print(n)
  end
end M
`)
	f := p.Object("M").Funcs[0]
	fi := fis[f]
	if fi.MaxStack < 3 {
		t.Errorf("MaxStack = %d", fi.MaxStack)
	}
	// a[1] <- 2 must convert the int to real before AStore.
	seen := false
	for pc, in := range f.Code {
		if in.Op == AStore && in.K == VKReal {
			if f.Code[pc-1].Op == CvtIR {
				seen = true
			}
		}
	}
	if !seen {
		t.Errorf("missing CvtIR before real AStore\n%s", Dump(f))
	}
}

func TestMobilityOps(t *testing.T) {
	p, _ := compile(t, `
object M
  process
    var o: M <- new M
    move o to node(1)
    fix o at thisnode()
    refix o at node(0)
    unfix o
    var w: Node <- locate(o)
    print(w)
  end process
end M
`)
	f := p.Object("M").Process()
	want := []Op{SysMove, SysFix, SysRefix, SysUnfix, SysLocate}
	var got []Op
	for _, in := range f.Code {
		for _, w := range want {
			if in.Op == w {
				got = append(got, in.Op)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("mobility ops = %v, want %v", got, want)
	}
}

func TestVerifyCatchesBadCode(t *testing.T) {
	bad := []*Func{
		{Name: "underflow", Code: []Instr{{Op: Drop}, {Op: Ret}}},
		{Name: "badjump", Code: []Instr{{Op: Jump, A: 99}}},
		{Name: "leftover", Code: []Instr{{Op: PushInt, A: 1}, {Op: Ret}}},
		{Name: "badslot", Code: []Instr{{Op: LoadVar, A: 5}, {Op: Drop}, {Op: Ret}}},
		{Name: "kind", VarKinds: []VK{VKPtr}, NumVars: 1,
			Code: []Instr{{Op: PushInt, A: 1}, {Op: StoreVar, A: 0}, {Op: Ret}}},
		{Name: "noret", Code: []Instr{{Op: Nop}}},
	}
	for _, f := range bad {
		if _, err := Analyze(f, nil); err == nil {
			t.Errorf("%s: expected verification error", f.Name)
		}
	}
}

func TestVerifyJoinMismatch(t *testing.T) {
	f := &Func{Name: "join", Code: []Instr{
		{Op: PushInt, A: 0}, // 0
		{Op: BrFalse, A: 4}, // 1: to 4 with empty stack
		{Op: PushInt, A: 7}, // 2
		{Op: Jump, A: 4},    // 3: to 4 with [int]
		{Op: PushInt, A: 1}, // 4
		{Op: Drop},          // 5
		{Op: Ret},           // 6
	}}
	if _, err := Analyze(f, nil); err == nil || !strings.Contains(err.Error(), "join") {
		t.Errorf("expected join mismatch, got %v", err)
	}
}

func TestDumpContainsMnemonics(t *testing.T) {
	p, _ := compile(t, `
object M
  operation f() -> (r: Int)
    r <- 1 + 2
  end
end M
`)
	d := Dump(p.Object("M").Funcs[0])
	for _, frag := range []string{"pushint 1", "pushint 2", "addi", "storevar 0", "ret"} {
		if !strings.Contains(d, frag) {
			t.Errorf("dump missing %q:\n%s", frag, d)
		}
	}
}

func TestDynamicCall(t *testing.T) {
	p, _ := compile(t, `
object M
  operation f(x: Any) -> (r: Any)
    r <- x.whatever(1)
  end
end M
`)
	f := p.Object("M").Funcs[0]
	found := false
	for _, in := range f.Code {
		if in.Op == Call && in.K == VKPtr {
			found = true
		}
	}
	if !found {
		t.Errorf("dynamic call should push a pointer\n%s", Dump(f))
	}
}
