// IR construction from a checked AST.

package ir

import (
	"fmt"

	"repro/internal/lang/ast"
	"repro/internal/lang/token"
	"repro/internal/lang/types"
)

// KindOf maps a semantic type to its 32-bit storage kind.
func KindOf(t *types.Type) VK {
	switch t.Kind {
	case types.KReal:
		return VKReal
	case types.KString, types.KAny, types.KRef, types.KArray, types.KNil:
		return VKPtr
	default:
		return VKInt // Int, Bool, Node, Condition, Void (dummy)
	}
}

// printLetter maps a semantic type to the format letter used by SysPrint
// and SysStrOf.
func printLetter(t *types.Type) byte {
	switch t.Kind {
	case types.KInt:
		return 'i'
	case types.KBool:
		return 'b'
	case types.KReal:
		return 'r'
	case types.KNode:
		return 'n'
	case types.KString:
		return 's'
	default:
		return 'p' // other pointers: printed as object references
	}
}

// Build lowers a checked program to IR. The same Info must come from
// types.Check on the same AST; Build panics on internal inconsistencies
// (the checker has already rejected invalid programs).
func Build(info *types.Info) *Program {
	p := &Program{}
	for _, od := range info.Program.Objects {
		p.Objects = append(p.Objects, buildObject(info, od))
	}
	return p
}

func buildObject(info *types.Info, od *ast.ObjectDecl) *Object {
	vars := info.ObjVars[od]
	o := &Object{
		Name:          od.Name,
		Immutable:     od.Immutable,
		NumConds:      info.NumConds[od],
		MonitoredFrom: len(vars),
		HasProcess:    od.Process != nil,
	}
	for i, s := range vars {
		o.VarKinds = append(o.VarKinds, KindOf(s.Type))
		o.VarNames = append(o.VarNames, s.Name)
		if s.Monitored && i < o.MonitoredFrom {
			o.MonitoredFrom = i
		}
	}
	// Conditions are identified by index; their data slot holds the index so
	// that LoadMine+SysWait works uniformly. $init stores them.
	for _, op := range od.AllOps() {
		o.Funcs = append(o.Funcs, buildFunc(info, info.FuncOf[op]))
	}
	o.Funcs = append(o.Funcs, buildInit(info, od))
	if init := od.Initially; init != nil {
		f := info.InitOf[od]
		b := newBuilder(info, f, od.Name+".$initially", "$initially")
		b.fn.NumParams = 0
		b.fn.NumResults = 0
		b.block(init)
		o.Funcs = append(o.Funcs, b.finish())
	}
	if od.Process != nil {
		o.Funcs = append(o.Funcs, buildFunc(info, info.ProcessOf[od]))
	}
	return o
}

// buildInit generates the $init function: store condition indices, then run
// the object-variable initializer expressions in declaration order.
func buildInit(info *types.Info, od *ast.ObjectDecl) *Func {
	f := info.InitOf[od]
	b := newBuilder(info, f, od.Name+".$init", "$init")
	b.fn.NumVars = 0 // initializers reference no frame locals
	b.fn.VarKinds = nil
	b.fn.VarNames = nil
	for _, s := range info.ObjVars[od] {
		if s.Type.Kind == types.KCond {
			b.emit(Instr{Op: PushInt, A: int32(s.CondIndex)})
			b.emit(Instr{Op: StoreMine, A: int32(s.Index)})
		}
	}
	for _, vd := range od.AllVars() {
		if vd.Init == nil {
			continue
		}
		s := objVar(info, od, vd.Name)
		b.exprConv(vd.Init, s.Type)
		b.emit(Instr{Op: StoreMine, A: int32(s.Index)})
	}
	b.emit(Instr{Op: Ret})
	return b.finishNoRet()
}

func objVar(info *types.Info, od *ast.ObjectDecl, name string) *types.Symbol {
	for _, s := range info.ObjVars[od] {
		if s.Name == name {
			return s
		}
	}
	panic("ir: missing object variable " + name)
}

func buildFunc(info *types.Info, f *types.Func) *Func {
	opName := "$process"
	if f.Kind == types.FuncOp {
		opName = f.Op.Name
	}
	b := newBuilder(info, f, f.Name, opName)
	if f.Body != nil {
		b.block(f.Body)
	}
	return b.finish()
}

// builder accumulates the instruction stream of one function.
type builder struct {
	info *types.Info
	tf   *types.Func
	fn   *Func
	strs map[string]int32
	// loop exit patch lists, innermost last
	loopExits [][]int
}

func newBuilder(info *types.Info, tf *types.Func, name, opName string) *builder {
	b := &builder{info: info, tf: tf, strs: map[string]int32{}}
	b.fn = &Func{
		Name:       name,
		OpName:     opName,
		NumParams:  len(tf.Params),
		NumResults: len(tf.Results),
		NumVars:    tf.NumSlots,
		Monitored:  tf.Monitored && opName != "$init" && opName != "$initially" && opName != "$process",
	}
	for _, s := range tf.Slots() {
		b.fn.VarKinds = append(b.fn.VarKinds, KindOf(s.Type))
		b.fn.VarNames = append(b.fn.VarNames, s.Name)
	}
	return b
}

func (b *builder) finish() *Func {
	b.emit(Instr{Op: Ret})
	return b.fn
}

func (b *builder) finishNoRet() *Func { return b.fn }

func (b *builder) emit(i Instr) int {
	b.fn.Code = append(b.fn.Code, i)
	return len(b.fn.Code) - 1
}

func (b *builder) here() int32 { return int32(len(b.fn.Code)) }

func (b *builder) patch(at int, target int32) { b.fn.Code[at].A = target }

func (b *builder) str(s string) int32 {
	if i, ok := b.strs[s]; ok {
		return i
	}
	i := int32(len(b.fn.Strings))
	b.fn.Strings = append(b.fn.Strings, s)
	b.strs[s] = i
	return i
}

func (b *builder) typeOf(e ast.Expr) *types.Type { return b.info.TypeOf(e) }

// ---------------------------------------------------------------- statements

func (b *builder) block(blk *ast.Block) {
	for _, s := range blk.Stmts {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.DeclStmt:
		vd := s.Decl
		if vd.Init == nil {
			return // frame slots are zeroed at activation creation
		}
		sym := b.info.LocalDecls[vd]
		b.exprConv(vd.Init, sym.Type)
		b.emit(Instr{Op: StoreVar, A: int32(sym.Index)})
	case *ast.AssignStmt:
		b.assign(s)
	case *ast.ExprStmt:
		b.expr(s.X)
		b.emit(Instr{Op: Drop}) // calls always push one value
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.LoopStmt:
		top := b.here()
		b.loopExits = append(b.loopExits, nil)
		b.block(s.Body)
		b.emit(Instr{Op: LoopBottom})
		b.emit(Instr{Op: Jump, A: top})
		b.patchLoopExits()
	case *ast.WhileStmt:
		top := b.here()
		b.loopExits = append(b.loopExits, nil)
		b.expr(s.Cond)
		br := b.emit(Instr{Op: BrFalse})
		b.block(s.Body)
		b.emit(Instr{Op: LoopBottom})
		b.emit(Instr{Op: Jump, A: top})
		b.patch(br, b.here())
		b.patchLoopExits()
	case *ast.ExitStmt:
		n := len(b.loopExits) - 1
		if s.When != nil {
			b.expr(s.When)
			at := b.emit(Instr{Op: BrTrue})
			b.loopExits[n] = append(b.loopExits[n], at)
		} else {
			at := b.emit(Instr{Op: Jump})
			b.loopExits[n] = append(b.loopExits[n], at)
		}
	case *ast.ReturnStmt:
		b.emit(Instr{Op: Ret})
	case *ast.MoveStmt:
		b.expr(s.X)
		b.expr(s.To)
		b.emit(Instr{Op: SysMove})
	case *ast.FixStmt:
		b.expr(s.X)
		b.expr(s.At)
		if s.Refix {
			b.emit(Instr{Op: SysRefix})
		} else {
			b.emit(Instr{Op: SysFix})
		}
	case *ast.UnfixStmt:
		b.expr(s.X)
		b.emit(Instr{Op: SysUnfix})
	case *ast.WaitStmt:
		b.expr(s.Cond) // pushes the condition index (its data slot value)
		b.emit(Instr{Op: SysWait})
	case *ast.SignalStmt:
		b.expr(s.Cond)
		b.emit(Instr{Op: SysSignal})
	default:
		panic(fmt.Sprintf("ir: unknown statement %T", s))
	}
}

func (b *builder) patchLoopExits() {
	n := len(b.loopExits) - 1
	for _, at := range b.loopExits[n] {
		b.patch(at, b.here())
	}
	b.loopExits = b.loopExits[:n]
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	var ends []int
	b.expr(s.Cond)
	br := b.emit(Instr{Op: BrFalse})
	b.block(s.Then)
	for _, arm := range s.Elifs {
		ends = append(ends, b.emit(Instr{Op: Jump}))
		b.patch(br, b.here())
		b.expr(arm.Cond)
		br = b.emit(Instr{Op: BrFalse})
		b.block(arm.Then)
	}
	if s.Else != nil {
		ends = append(ends, b.emit(Instr{Op: Jump}))
		b.patch(br, b.here())
		b.block(s.Else)
	} else {
		b.patch(br, b.here())
	}
	for _, at := range ends {
		b.patch(at, b.here())
	}
}

func (b *builder) assign(s *ast.AssignStmt) {
	switch lhs := s.Lhs.(type) {
	case *ast.Ident:
		sym := b.info.UseOf(lhs)
		b.exprConv(s.Rhs, sym.Type)
		switch sym.Kind {
		case types.SymLocal:
			b.emit(Instr{Op: StoreVar, A: int32(sym.Index)})
		case types.SymObjVar:
			b.emit(Instr{Op: StoreMine, A: int32(sym.Index)})
		default:
			panic("ir: assignment to global")
		}
	case *ast.Index:
		at := b.typeOf(lhs.X)
		b.expr(lhs.X)
		b.expr(lhs.I)
		b.exprConv(s.Rhs, at.Elem)
		b.emit(Instr{Op: AStore, K: KindOf(at.Elem)})
	default:
		panic("ir: invalid assignment target")
	}
}

// ---------------------------------------------------------------- expressions

// exprConv compiles e and inserts an int→real conversion if the context
// expects Real.
func (b *builder) exprConv(e ast.Expr, want *types.Type) {
	b.expr(e)
	if want != nil && want.Kind == types.KReal && b.typeOf(e).Kind == types.KInt {
		b.emit(Instr{Op: CvtIR})
	}
}

func (b *builder) expr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.IntLit:
		b.emit(Instr{Op: PushInt, A: int32(e.Value)})
	case *ast.RealLit:
		b.emit(Instr{Op: PushReal, F: e.Value})
	case *ast.StringLit:
		b.emit(Instr{Op: PushStr, S: b.str(e.Value)})
	case *ast.BoolLit:
		v := int32(0)
		if e.Value {
			v = 1
		}
		b.emit(Instr{Op: PushInt, A: v})
	case *ast.NilLit:
		b.emit(Instr{Op: PushNil})
	case *ast.SelfExpr:
		b.emit(Instr{Op: PushSelf})
	case *ast.Ident:
		sym := b.info.UseOf(e)
		switch sym.Kind {
		case types.SymLocal:
			b.emit(Instr{Op: LoadVar, A: int32(sym.Index)})
		case types.SymObjVar:
			b.emit(Instr{Op: LoadMine, A: int32(sym.Index)})
		default:
			panic("ir: load of global " + sym.Name)
		}
	case *ast.Unary:
		b.expr(e.X)
		switch {
		case e.Op == token.Not:
			b.emit(Instr{Op: NotB})
		case b.typeOf(e.X).Kind == types.KReal:
			b.emit(Instr{Op: NegR})
		default:
			b.emit(Instr{Op: NegI})
		}
	case *ast.Binary:
		b.binary(e)
	case *ast.Invoke:
		b.invoke(e)
	case *ast.New:
		b.newExpr(e)
	case *ast.Index:
		ct := b.typeOf(e.X)
		b.expr(e.X)
		b.expr(e.I)
		if ct.Kind == types.KString {
			b.emit(Instr{Op: SIndex})
		} else {
			b.emit(Instr{Op: ALoad, K: KindOf(ct.Elem)})
		}
	default:
		panic(fmt.Sprintf("ir: unknown expression %T", e))
	}
}

func (b *builder) binary(e *ast.Binary) {
	xt, yt := b.typeOf(e.X), b.typeOf(e.Y)
	isReal := xt.Kind == types.KReal || yt.Kind == types.KReal
	pushBoth := func() {
		b.expr(e.X)
		if isReal && xt.Kind == types.KInt {
			b.emit(Instr{Op: CvtIR})
		}
		b.expr(e.Y)
		if isReal && yt.Kind == types.KInt {
			b.emit(Instr{Op: CvtIR})
		}
	}
	arith := func(iop, rop Op) {
		pushBoth()
		if isReal {
			b.emit(Instr{Op: rop})
		} else {
			b.emit(Instr{Op: iop})
		}
	}
	cmp := func(code int32) {
		switch {
		case xt.Kind == types.KString && yt.Kind == types.KString:
			b.expr(e.X)
			b.expr(e.Y)
			b.emit(Instr{Op: CmpS, A: code})
		case isReal:
			pushBoth()
			b.emit(Instr{Op: CmpR, A: code})
		case xt.IsPointer() || yt.IsPointer():
			b.expr(e.X)
			b.expr(e.Y)
			b.emit(Instr{Op: CmpP, A: code})
		default:
			b.expr(e.X)
			b.expr(e.Y)
			b.emit(Instr{Op: CmpI, A: code})
		}
	}
	switch e.Op {
	case token.Plus:
		if xt.Kind == types.KString {
			b.expr(e.X)
			b.expr(e.Y)
			b.emit(Instr{Op: SysConcat})
			return
		}
		arith(AddI, AddR)
	case token.Minus:
		arith(SubI, SubR)
	case token.Star:
		arith(MulI, MulR)
	case token.Slash:
		arith(DivI, DivR)
	case token.Percent:
		pushBoth()
		b.emit(Instr{Op: ModI})
	case token.Eq:
		cmp(CmpEQ)
	case token.NotEq:
		cmp(CmpNE)
	case token.Lt:
		cmp(CmpLT)
	case token.Le:
		cmp(CmpLE)
	case token.Gt:
		cmp(CmpGT)
	case token.Ge:
		cmp(CmpGE)
	case token.And:
		b.expr(e.X)
		b.expr(e.Y)
		b.emit(Instr{Op: AndB})
	case token.Or:
		b.expr(e.X)
		b.expr(e.Y)
		b.emit(Instr{Op: OrB})
	default:
		panic("ir: unknown binary operator " + e.Op.String())
	}
}

func (b *builder) newExpr(e *ast.New) {
	t := b.typeOf(e)
	if t.Kind == types.KArray {
		b.exprConv(e.Args[0], types.Int)
		b.emit(Instr{Op: NewArray, K: KindOf(t.Elem)})
		return
	}
	vars := b.info.ObjVars[t.Obj]
	for i, a := range e.Args {
		b.exprConv(a, vars[i].Type)
	}
	b.emit(Instr{Op: New, S: b.str(t.Obj.Name), A: int32(len(e.Args))})
}

func (b *builder) invoke(e *ast.Invoke) {
	tgt := b.info.TargetOf(e)
	if tgt == nil {
		panic("ir: unresolved invocation " + e.OpName)
	}
	switch {
	case tgt.Builtin != "":
		b.builtin(e, tgt.Builtin)
	case tgt.Dynamic:
		b.expr(e.Recv)
		for _, a := range e.Args {
			b.expr(a)
		}
		b.emit(Instr{Op: Call, S: b.str(e.OpName), A: int32(len(e.Args)), K: VKPtr})
	default:
		f := b.info.FuncOf[tgt.Op]
		if tgt.OnSelf {
			b.emit(Instr{Op: PushSelf})
		} else {
			b.expr(e.Recv)
		}
		for i, a := range e.Args {
			var want *types.Type
			if i < len(f.Params) {
				want = f.Params[i].Type
			}
			b.exprConv(a, want)
		}
		k := VKInt
		if len(f.Results) > 0 {
			k = KindOf(f.Results[0].Type)
		}
		b.emit(Instr{Op: Call, S: b.str(e.OpName), A: int32(len(e.Args)), K: k})
	}
}

func (b *builder) builtin(e *ast.Invoke, name string) {
	switch name {
	case ast.BuiltinPrint:
		letters := make([]byte, 0, len(e.Args))
		for _, a := range e.Args {
			b.expr(a)
			letters = append(letters, printLetter(b.typeOf(a)))
		}
		b.emit(Instr{Op: SysPrint, S: b.str(string(letters)), A: int32(len(e.Args))})
		// Statement-position Drop expects one pushed value.
		b.emit(Instr{Op: PushInt, A: 0})
	case ast.BuiltinNodes:
		b.emit(Instr{Op: SysNodes})
	case ast.BuiltinThisNode:
		b.emit(Instr{Op: SysThisNode})
	case ast.BuiltinNodeAt:
		b.expr(e.Args[0])
		b.emit(Instr{Op: SysNodeAt})
	case ast.BuiltinTimeMS:
		b.emit(Instr{Op: SysTimeMS})
	case ast.BuiltinYield:
		b.emit(Instr{Op: SysYield})
		b.emit(Instr{Op: PushInt, A: 0})
	case ast.BuiltinStr:
		b.expr(e.Args[0])
		b.emit(Instr{Op: SysStrOf, S: b.str(string([]byte{printLetter(b.typeOf(e.Args[0]))}))})
	case ast.BuiltinAbs:
		b.expr(e.Args[0])
		b.emit(Instr{Op: AbsI})
	case ast.BuiltinLocate:
		b.expr(e.Args[0])
		b.emit(Instr{Op: SysLocate})
	case ast.BuiltinSize:
		b.expr(e.Recv)
		if b.typeOf(e.Recv).Kind == types.KString {
			b.emit(Instr{Op: SLen})
		} else {
			b.emit(Instr{Op: ALen})
		}
	default:
		panic("ir: unknown builtin " + name)
	}
}
