// The source-level interpreter: the top of the Figure 2 hierarchy.
// "Program execution lower in the hierarchy is typically faster than
// program execution higher up" — this level re-examines the AST on every
// step.

package interp

import (
	"strings"

	"repro/internal/lang/ast"
	"repro/internal/lang/token"
	"repro/internal/lang/types"
)

// Source interprets a checked program directly from its AST.
type Source struct {
	rt   *RT
	info *types.Info
}

// NewSource builds a source interpreter.
func NewSource(info *types.Info) *Source {
	return &Source{rt: NewRT(), info: info}
}

// RT exposes the runtime (output, faults, step counts).
func (s *Source) RT() *RT { return s.rt }

// Run boots the program (the object named Main, or every process object)
// and interprets to completion.
func (s *Source) Run() {
	roots := rootDecls(s.info)
	for _, od := range roots {
		od := od
		s.rt.Spawn(func(t *Thread) {
			s.create(od, nil)
		})
	}
	s.rt.Run()
}

// rootDecls mirrors the kernel loader's rule.
func rootDecls(info *types.Info) []*ast.ObjectDecl {
	if m, ok := info.Objects["Main"]; ok && m.Process != nil {
		return []*ast.ObjectDecl{m}
	}
	var out []*ast.ObjectDecl
	for _, od := range info.Program.Objects {
		if od.Process != nil {
			out = append(out, od)
		}
	}
	return out
}

type srcEnv struct {
	fn     *types.Func
	locals []any
	self   *Object
}

// ctl is a statement's control outcome.
type ctl int

const (
	ctlNone ctl = iota
	ctlReturn
	ctlExit
)

// create instantiates an object: zeroed vars, condition indices,
// initializers, constructor args, initially, process spawn.
func (s *Source) create(od *ast.ObjectDecl, args []any) *Object {
	vars := s.info.ObjVars[od]
	obj := &Object{Decl: od, Vars: make([]any, len(vars)),
		conds: make([][]*Thread, s.info.NumConds[od])}
	for i, sym := range vars {
		obj.Vars[i] = zeroOf(sym.Type)
		if sym.Type.Kind == types.KCond {
			obj.Vars[i] = CondVal(sym.CondIndex)
		}
	}
	initEnv := &srcEnv{fn: s.info.InitOf[od], self: obj,
		locals: make([]any, s.info.InitOf[od].NumSlots)}
	for _, vd := range od.AllVars() {
		if vd.Init != nil {
			sym := s.objVar(od, vd.Name)
			obj.Vars[sym.Index] = s.convert(s.eval(initEnv, vd.Init), sym.Type)
		}
	}
	for i, a := range args {
		obj.Vars[i] = s.convert(a, vars[i].Type)
	}
	if od.Initially != nil {
		s.execBlock(initEnv, od.Initially)
	}
	if od.Process != nil {
		proc := s.info.ProcessOf[od]
		s.rt.Spawn(func(t *Thread) {
			env := &srcEnv{fn: proc, self: obj, locals: make([]any, proc.NumSlots)}
			s.execBlock(env, od.Process)
		})
	}
	return obj
}

func (s *Source) objVar(od *ast.ObjectDecl, name string) *types.Symbol {
	for _, sym := range s.info.ObjVars[od] {
		if sym.Name == name {
			return sym
		}
	}
	Faultf("no object variable %s", name)
	return nil
}

// zeroOf returns the zero value of a semantic type.
func zeroOf(t *types.Type) any {
	switch t.Kind {
	case types.KInt, types.KCond:
		return int32(0)
	case types.KBool:
		return false
	case types.KReal:
		return float32(0)
	case types.KNode:
		return NodeVal(0)
	default:
		return nil
	}
}

// convert applies the implicit Int -> Real widening.
func (s *Source) convert(v any, want *types.Type) any {
	if want.Kind == types.KReal {
		if i, ok := v.(int32); ok {
			return float32(i)
		}
	}
	return v
}

// invoke runs an operation (monitored entry/exit included) and returns the
// first result value (int32(0) when the operation has none).
func (s *Source) invoke(recv *Object, op *ast.OpDecl, args []any) any {
	f := s.info.FuncOf[op]
	env := &srcEnv{fn: f, self: recv, locals: make([]any, f.NumSlots)}
	for i, sym := range f.Params {
		env.locals[sym.Index] = s.convert(args[i], sym.Type)
	}
	for _, sym := range f.Results {
		env.locals[sym.Index] = zeroOf(sym.Type)
	}
	if op.Monitored {
		s.rt.MonEnter(recv)
	}
	s.execBlock(env, op.Body)
	if op.Monitored {
		s.rt.MonExit(recv)
	}
	if len(f.Results) > 0 {
		return env.locals[f.Results[0].Index]
	}
	return int32(0)
}

// ---------------------------------------------------------------- statements

func (s *Source) execBlock(env *srcEnv, b *ast.Block) ctl {
	for _, st := range b.Stmts {
		if c := s.execStmt(env, st); c != ctlNone {
			return c
		}
	}
	return ctlNone
}

func (s *Source) execStmt(env *srcEnv, st ast.Stmt) ctl {
	s.rt.Steps++
	switch st := st.(type) {
	case *ast.DeclStmt:
		sym := s.info.LocalDecls[st.Decl]
		if st.Decl.Init != nil {
			env.locals[sym.Index] = s.convert(s.eval(env, st.Decl.Init), sym.Type)
		} else {
			env.locals[sym.Index] = zeroOf(sym.Type)
		}
	case *ast.AssignStmt:
		v := s.eval(env, st.Rhs)
		switch lhs := st.Lhs.(type) {
		case *ast.Ident:
			sym := s.info.UseOf(lhs)
			v = s.convert(v, sym.Type)
			if sym.Kind == types.SymLocal {
				env.locals[sym.Index] = v
			} else {
				env.self.Vars[sym.Index] = v
			}
		case *ast.Index:
			arr := s.asArray(s.eval(env, lhs.X))
			i := AsInt(s.eval(env, lhs.I))
			if i < 0 || int(i) >= len(arr.Elems) {
				Faultf("index %d out of bounds (length %d)", i, len(arr.Elems))
			}
			at := s.info.TypeOf(lhs.X)
			arr.Elems[i] = s.convert(v, at.Elem)
		}
	case *ast.ExprStmt:
		s.eval(env, st.X)
	case *ast.IfStmt:
		if Truthy(s.eval(env, st.Cond)) {
			return s.execBlock(env, st.Then)
		}
		for _, arm := range st.Elifs {
			if Truthy(s.eval(env, arm.Cond)) {
				return s.execBlock(env, arm.Then)
			}
		}
		if st.Else != nil {
			return s.execBlock(env, st.Else)
		}
	case *ast.LoopStmt:
		for {
			c := s.execBlock(env, st.Body)
			if c == ctlExit {
				return ctlNone
			}
			if c == ctlReturn {
				return c
			}
			s.poll()
		}
	case *ast.WhileStmt:
		for Truthy(s.eval(env, st.Cond)) {
			c := s.execBlock(env, st.Body)
			if c == ctlExit {
				return ctlNone
			}
			if c == ctlReturn {
				return c
			}
			s.poll()
		}
	case *ast.ExitStmt:
		if st.When == nil || Truthy(s.eval(env, st.When)) {
			return ctlExit
		}
	case *ast.ReturnStmt:
		return ctlReturn
	case *ast.MoveStmt:
		s.eval(env, st.X)
		s.eval(env, st.To) // single node: moves are no-ops
	case *ast.FixStmt:
		s.eval(env, st.X)
		s.eval(env, st.At)
	case *ast.UnfixStmt:
		s.eval(env, st.X)
	case *ast.WaitStmt:
		k := AsInt(s.eval(env, st.Cond))
		s.rt.Wait(env.self, int(k))
	case *ast.SignalStmt:
		k := AsInt(s.eval(env, st.Cond))
		s.rt.Signal(env.self, int(k))
	}
	return ctlNone
}

// poll yields at loop bottoms when other threads are runnable (the
// interpreter's bus stop).
func (s *Source) poll() {
	if len(s.rt.runq) > 0 {
		s.rt.Yield()
	}
}

func (s *Source) asArray(v any) *Array {
	a, ok := v.(*Array)
	if !ok {
		Faultf("expected an array, got %T", v)
	}
	return a
}

// ---------------------------------------------------------------- expressions

func (s *Source) eval(env *srcEnv, e ast.Expr) any {
	s.rt.Steps++
	switch e := e.(type) {
	case *ast.IntLit:
		return int32(e.Value)
	case *ast.RealLit:
		return float32(e.Value)
	case *ast.StringLit:
		return e.Value
	case *ast.BoolLit:
		return e.Value
	case *ast.NilLit:
		return nil
	case *ast.SelfExpr:
		return env.self
	case *ast.Ident:
		sym := s.info.UseOf(e)
		if sym.Kind == types.SymLocal {
			return env.locals[sym.Index]
		}
		return env.self.Vars[sym.Index]
	case *ast.Unary:
		v := s.eval(env, e.X)
		switch e.Op {
		case token.Not:
			return !Truthy(v)
		case token.Minus:
			if r, ok := v.(float32); ok {
				return -r
			}
			return -AsInt(v)
		}
	case *ast.Binary:
		return s.binary(env, e)
	case *ast.Invoke:
		return s.evalInvoke(env, e)
	case *ast.New:
		return s.evalNew(env, e)
	case *ast.Index:
		cv := s.eval(env, e.X)
		i := AsInt(s.eval(env, e.I))
		switch c := cv.(type) {
		case string:
			if i < 0 || int(i) >= len(c) {
				Faultf("index %d out of bounds (length %d)", i, len(c))
			}
			return int32(c[i])
		case *Array:
			if i < 0 || int(i) >= len(c.Elems) {
				Faultf("index %d out of bounds (length %d)", i, len(c.Elems))
			}
			return c.Elems[i]
		}
		Faultf("cannot index %T", cv)
	}
	Faultf("cannot evaluate %T", e)
	return nil
}

func (s *Source) binary(env *srcEnv, e *ast.Binary) any {
	x := s.eval(env, e.X)
	y := s.eval(env, e.Y)
	xt, yt := s.info.TypeOf(e.X), s.info.TypeOf(e.Y)
	isReal := xt.Kind == types.KReal || yt.Kind == types.KReal
	switch e.Op {
	case token.Plus:
		if xs, ok := x.(string); ok {
			return xs + y.(string)
		}
		if isReal {
			return AsReal(x) + AsReal(y)
		}
		return AsInt(x) + AsInt(y)
	case token.Minus:
		if isReal {
			return AsReal(x) - AsReal(y)
		}
		return AsInt(x) - AsInt(y)
	case token.Star:
		if isReal {
			return AsReal(x) * AsReal(y)
		}
		return AsInt(x) * AsInt(y)
	case token.Slash:
		if isReal {
			d := AsReal(y)
			if d == 0 {
				Faultf("division by zero")
			}
			return AsReal(x) / d
		}
		d := AsInt(y)
		if d == 0 {
			Faultf("division by zero")
		}
		return AsInt(x) / d
	case token.Percent:
		d := AsInt(y)
		if d == 0 {
			Faultf("division by zero")
		}
		return AsInt(x) % d
	case token.And:
		return Truthy(x) && Truthy(y)
	case token.Or:
		return Truthy(x) || Truthy(y)
	}
	// Comparisons.
	var lt, eq bool
	switch {
	case xt.Kind == types.KString && yt.Kind == types.KString:
		xs, ys := x.(string), y.(string)
		lt, eq = xs < ys, xs == ys
	case isReal:
		xv, yv := AsReal(x), AsReal(y)
		lt, eq = xv < yv, xv == yv
	case xt.IsPointer() || yt.IsPointer():
		eq = x == y
	default:
		xv, yv := AsInt(x), AsInt(y)
		lt, eq = xv < yv, xv == yv
	}
	switch e.Op {
	case token.Eq:
		return eq
	case token.NotEq:
		return !eq
	case token.Lt:
		return lt
	case token.Le:
		return lt || eq
	case token.Gt:
		return !lt && !eq
	case token.Ge:
		return !lt
	}
	Faultf("unknown operator %v", e.Op)
	return nil
}

func (s *Source) evalNew(env *srcEnv, e *ast.New) any {
	t := s.info.TypeOf(e)
	if t.Kind == types.KArray {
		n := AsInt(s.eval(env, e.Args[0]))
		if n < 0 {
			Faultf("negative array length")
		}
		a := &Array{Elems: make([]any, n)}
		for i := range a.Elems {
			a.Elems[i] = zeroOf(t.Elem)
		}
		return a
	}
	args := make([]any, len(e.Args))
	for i, ae := range e.Args {
		args[i] = s.eval(env, ae)
	}
	return s.create(t.Obj, args)
}

func (s *Source) evalInvoke(env *srcEnv, e *ast.Invoke) any {
	tgt := s.info.TargetOf(e)
	if tgt.Builtin != "" {
		return s.builtin(env, e, tgt.Builtin)
	}
	args := make([]any, len(e.Args))
	for i, ae := range e.Args {
		args[i] = s.eval(env, ae)
	}
	var recv *Object
	if tgt.OnSelf {
		recv = env.self
	} else {
		rv := s.eval(env, e.Recv)
		if rv == nil {
			Faultf("invocation of %s on nil", e.OpName)
		}
		var ok bool
		recv, ok = rv.(*Object)
		if !ok {
			Faultf("invocation of %s on a non-object value", e.OpName)
		}
	}
	op := tgt.Op
	if tgt.Dynamic {
		op = recv.Decl.Op(e.OpName)
		if op == nil {
			Faultf("%s has no operation %s", recv.Decl.Name, e.OpName)
		}
		if len(op.Params) != len(args) {
			Faultf("%s takes %d arguments, got %d", e.OpName, len(op.Params), len(args))
		}
	}
	return s.invoke(recv, op, args)
}

func (s *Source) builtin(env *srcEnv, e *ast.Invoke, name string) any {
	switch name {
	case ast.BuiltinPrint:
		var b strings.Builder
		for _, ae := range e.Args {
			b.WriteString(FormatValue(s.eval(env, ae)))
		}
		s.rt.Print(b.String())
		return int32(0)
	case ast.BuiltinNodes:
		return int32(1)
	case ast.BuiltinThisNode:
		return NodeVal(0)
	case ast.BuiltinNodeAt:
		i := AsInt(s.eval(env, e.Args[0]))
		if i != 0 {
			Faultf("node(%d) out of range", i)
		}
		return NodeVal(0)
	case ast.BuiltinLocate:
		s.eval(env, e.Args[0])
		return NodeVal(0)
	case ast.BuiltinTimeMS:
		// Pseudo-time: proportional to interpretation work.
		return int32(s.rt.Steps / 5000)
	case ast.BuiltinYield:
		s.rt.Yield()
		return int32(0)
	case ast.BuiltinStr:
		return FormatValue(s.eval(env, e.Args[0]))
	case ast.BuiltinAbs:
		v := AsInt(s.eval(env, e.Args[0]))
		if v < 0 {
			v = -v
		}
		return v
	case ast.BuiltinSize:
		switch c := s.eval(env, e.Recv).(type) {
		case string:
			return int32(len(c))
		case *Array:
			return int32(len(c.Elems))
		}
		Faultf("size() on a non-container")
	}
	Faultf("unknown builtin %s", name)
	return nil
}
