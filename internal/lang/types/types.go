// Package types implements semantic analysis for the Emerald-subset
// language: name resolution, type checking, and frame-slot assignment.
//
// The checker produces an Info structure consumed by the native-code
// compiler (internal/codegen), the source interpreter and the byte-code
// compiler (internal/interp). All three back ends therefore agree on
// variable numbering — the property the paper's cross-architecture OID and
// template consistency depends on.
package types

import (
	"fmt"

	"repro/internal/lang/ast"
	"repro/internal/lang/token"
)

// Kind enumerates the semantic type kinds.
type Kind int

// Semantic type kinds. Values of pointer kinds occupy reference slots and
// are swizzled when marshalled; scalar kinds are converted by value.
const (
	KVoid   Kind = iota // no value (statement-position invocations)
	KInt                // 32-bit signed integer
	KBool               // true/false
	KReal               // 32-bit floating point (VAX F-float on the VAX)
	KString             // immutable string object (pointer)
	KNode               // a node of the network (scalar node id)
	KCond               // monitor condition variable (per-object index)
	KNil                // type of `nil`, assignable to any pointer kind
	KAny                // dynamically typed reference
	KRef                // reference to an instance of a declared object
	KArray              // Array[Elem]
)

// Type is a semantic type.
type Type struct {
	Kind Kind
	Elem *Type           // for KArray
	Obj  *ast.ObjectDecl // for KRef
}

// Predeclared types.
var (
	Void   = &Type{Kind: KVoid}
	Int    = &Type{Kind: KInt}
	Bool   = &Type{Kind: KBool}
	Real   = &Type{Kind: KReal}
	String = &Type{Kind: KString}
	Node   = &Type{Kind: KNode}
	Cond   = &Type{Kind: KCond}
	Nil    = &Type{Kind: KNil}
	Any    = &Type{Kind: KAny}
)

// Ref returns the reference type of obj.
func Ref(obj *ast.ObjectDecl) *Type { return &Type{Kind: KRef, Obj: obj} }

// Array returns the array type with the given element type.
func Array(elem *Type) *Type { return &Type{Kind: KArray, Elem: elem} }

// IsPointer reports whether values of the type live in reference slots
// (and must be swizzled during migration).
func (t *Type) IsPointer() bool {
	switch t.Kind {
	case KString, KAny, KRef, KArray, KNil:
		return true
	}
	return false
}

// String renders the type.
func (t *Type) String() string {
	switch t.Kind {
	case KVoid:
		return "Void"
	case KInt:
		return "Int"
	case KBool:
		return "Bool"
	case KReal:
		return "Real"
	case KString:
		return "String"
	case KNode:
		return "Node"
	case KCond:
		return "Condition"
	case KNil:
		return "Nil"
	case KAny:
		return "Any"
	case KRef:
		return t.Obj.Name
	case KArray:
		return "Array[" + t.Elem.String() + "]"
	}
	return fmt.Sprintf("Kind(%d)", int(t.Kind))
}

// Equal reports structural type equality.
func Equal(a, b *Type) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KRef:
		return a.Obj == b.Obj
	case KArray:
		return Equal(a.Elem, b.Elem)
	}
	return true
}

// AssignableTo reports whether a value of type src may be stored in dst.
func AssignableTo(src, dst *Type) bool {
	if Equal(src, dst) {
		return true
	}
	if src.Kind == KNil && dst.IsPointer() {
		return true
	}
	if dst.Kind == KAny && src.IsPointer() {
		return true
	}
	if src.Kind == KAny && dst.IsPointer() {
		return true // dynamic downcast, checked at run time
	}
	if src.Kind == KInt && dst.Kind == KReal {
		return true // implicit widening
	}
	return false
}

// ---------------------------------------------------------------- symbols

// SymKind says where a symbol lives.
type SymKind int

// Symbol storage classes.
const (
	SymLocal  SymKind = iota // parameter, result, or local variable (frame slot)
	SymObjVar                // object variable (object data area slot)
	SymGlobal                // an object declaration name
)

// Symbol is a resolved name.
type Symbol struct {
	Name      string
	Kind      SymKind
	Type      *Type
	Index     int             // frame slot (SymLocal) or data slot (SymObjVar)
	Obj       *ast.ObjectDecl // for SymGlobal / owning object for SymObjVar
	Monitored bool            // SymObjVar declared in the monitor section
	IsResult  bool            // SymLocal that is an operation result
	CondIndex int             // for Condition-typed object vars: per-object condition number
}

// FuncKind discriminates the compiled function bodies of an object.
type FuncKind int

// Function kinds. Every object yields one Func per operation, plus an Init
// function (variable initializers followed by the `initially` block) and,
// when a process section is present, a Process function.
const (
	FuncOp FuncKind = iota
	FuncInit
	FuncProcess
)

// Func is one compilable function body: an operation, the creation-time
// initializer, or the process body.
type Func struct {
	Object    *ast.ObjectDecl
	Kind      FuncKind
	Op        *ast.OpDecl // nil unless Kind == FuncOp
	Body      *ast.Block  // nil Init bodies are synthesized by the builder
	Name      string      // e.g. "Counter.inc", "Main.$process"
	Params    []*Symbol
	Results   []*Symbol
	Locals    []*Symbol // declared locals, slot order
	NumSlots  int       // params + results + locals
	Monitored bool
}

// Slots returns all frame symbols in slot order (params, results, locals).
func (f *Func) Slots() []*Symbol {
	out := make([]*Symbol, 0, f.NumSlots)
	out = append(out, f.Params...)
	out = append(out, f.Results...)
	out = append(out, f.Locals...)
	return out
}

// InvokeTarget describes what an ast.Invoke resolved to.
type InvokeTarget struct {
	Builtin string      // non-empty for builtin calls (ast.Builtin*)
	Op      *ast.OpDecl // resolved operation for object invocations
	OnSelf  bool        // bare call dispatched to self
	Dynamic bool        // receiver is Any: operation looked up at run time
}

// Info is the result of checking a program.
type Info struct {
	Program *ast.Program
	Objects map[string]*ast.ObjectDecl
	// ObjVars maps each object to its data-area symbols in slot order.
	ObjVars map[*ast.ObjectDecl][]*Symbol
	// NumConds is the number of Condition variables per object.
	NumConds map[*ast.ObjectDecl]int
	// Funcs lists all compilable functions in deterministic order.
	Funcs []*Func
	// FuncOf finds the Func for an operation declaration.
	FuncOf map[*ast.OpDecl]*Func
	// InitOf / ProcessOf find the synthetic functions per object.
	InitOf    map[*ast.ObjectDecl]*Func
	ProcessOf map[*ast.ObjectDecl]*Func
	// LocalDecls resolves local variable declarations to their symbols.
	LocalDecls map[*ast.VarDecl]*Symbol
	// facts holds what the checker learned about each expression, indexed
	// by its number (ast.Num): Program.NumExprs entries. Read it through
	// TypeOf, UseOf and TargetOf.
	facts []exprFacts
}

// exprFacts is what the checker records about one expression.
type exprFacts struct {
	typ    *Type         // every checked expression
	use    *Symbol       // an identifier's resolution
	target *InvokeTarget // an invocation's resolution
}

// TypeOf returns the checked type of e (Void if unknown).
func (in *Info) TypeOf(e ast.Expr) *Type {
	if t := in.facts[e.ExprNum()].typ; t != nil {
		return t
	}
	return Void
}

// UseOf returns the symbol id resolves to, or nil if it did not resolve.
func (in *Info) UseOf(id *ast.Ident) *Symbol { return in.facts[id.Num].use }

// TargetOf returns what e resolved to, or nil if it did not resolve.
func (in *Info) TargetOf(e *ast.Invoke) *InvokeTarget { return in.facts[e.Num].target }

// Error is a semantic error.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects semantic errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// ---------------------------------------------------------------- checker

type checker struct {
	info *Info
	errs ErrorList

	// current function context
	obj    *ast.ObjectDecl
	fn     *Func
	scopes []map[string]*Symbol // innermost last
	loops  int                  // nesting depth of loop/while
}

// Check performs semantic analysis of prog.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{info: &Info{
		Program:    prog,
		Objects:    map[string]*ast.ObjectDecl{},
		ObjVars:    map[*ast.ObjectDecl][]*Symbol{},
		NumConds:   map[*ast.ObjectDecl]int{},
		FuncOf:     map[*ast.OpDecl]*Func{},
		InitOf:     map[*ast.ObjectDecl]*Func{},
		ProcessOf:  map[*ast.ObjectDecl]*Func{},
		LocalDecls: map[*ast.VarDecl]*Symbol{},
		facts:      make([]exprFacts, prog.NumExprs),
	}}
	c.collect(prog)
	for _, od := range prog.Objects {
		c.checkObject(od)
	}
	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	return c.info, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	if len(c.errs) < 25 {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// collect registers object names, data layouts and function shells so that
// bodies can reference objects and operations declared later.
func (c *checker) collect(prog *ast.Program) {
	for _, od := range prog.Objects {
		if prev, dup := c.info.Objects[od.Name]; dup {
			c.errorf(od.NamePos, "object %s redeclared (first at %s)", od.Name, prev.NamePos)
			continue
		}
		c.info.Objects[od.Name] = od
	}
	for _, od := range prog.Objects {
		c.collectObject(od)
	}
}

func (c *checker) collectObject(od *ast.ObjectDecl) {
	// Object variable layout: unmonitored then monitored, declaration order.
	conds := 0
	var syms []*Symbol
	addVar := func(vd *ast.VarDecl, monitored bool) {
		t := c.resolveType(vd.Type)
		s := &Symbol{
			Name: vd.Name, Kind: SymObjVar, Type: t,
			Index: len(syms), Obj: od, Monitored: monitored, CondIndex: -1,
		}
		if t.Kind == KCond {
			if !monitored {
				c.errorf(vd.VarPos, "Condition variable %s must be declared in a monitor section", vd.Name)
			}
			s.CondIndex = conds
			conds++
		}
		for _, prev := range syms {
			if prev.Name == vd.Name {
				c.errorf(vd.VarPos, "object variable %s redeclared", vd.Name)
			}
		}
		syms = append(syms, s)
	}
	for _, vd := range od.Vars {
		addVar(vd, false)
	}
	if od.Monitor != nil {
		for _, vd := range od.Monitor.Vars {
			addVar(vd, true)
		}
	}
	c.info.ObjVars[od] = syms
	c.info.NumConds[od] = conds

	// Function shells with parameter/result slots assigned.
	newFunc := func(kind FuncKind, op *ast.OpDecl, name string, body *ast.Block, monitored bool) *Func {
		f := &Func{Object: od, Kind: kind, Op: op, Body: body, Name: name, Monitored: monitored}
		if op != nil {
			for _, p := range op.Params {
				f.Params = append(f.Params, &Symbol{
					Name: p.Name, Kind: SymLocal, Type: c.resolveType(p.Type),
					Index: len(f.Params), CondIndex: -1,
				})
			}
			for _, r := range op.Results {
				f.Results = append(f.Results, &Symbol{
					Name: r.Name, Kind: SymLocal, Type: c.resolveType(r.Type),
					Index: len(f.Params) + len(f.Results), IsResult: true, CondIndex: -1,
				})
			}
		}
		c.info.Funcs = append(c.info.Funcs, f)
		return f
	}
	seen := map[string]token.Pos{}
	for _, op := range od.AllOps() {
		if pos, dup := seen[op.Name]; dup {
			c.errorf(op.OpPos, "operation %s redeclared in %s (first at %s)", op.Name, od.Name, pos)
		}
		seen[op.Name] = op.OpPos
		f := newFunc(FuncOp, op, od.Name+"."+op.Name, op.Body, op.Monitored)
		c.info.FuncOf[op] = f
	}
	// Init function always exists: variable initializers + initially block.
	c.info.InitOf[od] = newFunc(FuncInit, nil, od.Name+".$init", od.Initially, false)
	if od.Process != nil {
		c.info.ProcessOf[od] = newFunc(FuncProcess, nil, od.Name+".$process", od.Process, false)
	}
}

func (c *checker) resolveType(te *ast.TypeExpr) *Type {
	if te == nil {
		return Void
	}
	switch te.Name {
	case "Int":
		return Int
	case "Bool":
		return Bool
	case "Real":
		return Real
	case "String":
		return String
	case "Node":
		return Node
	case "Condition":
		return Cond
	case "Any":
		return Any
	case "Array":
		if te.Elem == nil {
			c.errorf(te.NamePos, "Array requires an element type")
			return Array(Int)
		}
		return Array(c.resolveType(te.Elem))
	}
	if od, ok := c.info.Objects[te.Name]; ok {
		return Ref(od)
	}
	c.errorf(te.NamePos, "unknown type %s", te.Name)
	return Any
}

// ---------------------------------------------------------------- objects

func (c *checker) checkObject(od *ast.ObjectDecl) {
	c.obj = od
	for _, op := range od.AllOps() {
		c.checkFunc(c.info.FuncOf[op])
	}
	c.checkFunc(c.info.InitOf[od])
	if f := c.info.ProcessOf[od]; f != nil {
		c.checkFunc(f)
	}
	c.obj = nil
}

func (c *checker) checkFunc(f *Func) {
	c.fn = f
	c.scopes = []map[string]*Symbol{{}}
	c.loops = 0
	for _, s := range f.Params {
		c.declare(token.Pos{Line: 1, Col: 1}, s)
	}
	for _, s := range f.Results {
		c.declare(token.Pos{Line: 1, Col: 1}, s)
	}
	if f.Kind == FuncInit {
		// Object variable initializers are part of the init function.
		for _, vd := range f.Object.AllVars() {
			if vd.Init != nil {
				sym := c.lookupObjVar(f.Object, vd.Name)
				t := c.checkExpr(vd.Init)
				if !AssignableTo(t, sym.Type) {
					c.errorf(vd.VarPos, "cannot initialize %s (%s) with %s", vd.Name, sym.Type, t)
				}
			}
		}
	}
	if f.Body != nil {
		c.checkBlock(f.Body)
	}
	f.NumSlots = len(f.Params) + len(f.Results) + len(f.Locals)
	c.fn = nil
}

func (c *checker) lookupObjVar(od *ast.ObjectDecl, name string) *Symbol {
	for _, s := range c.info.ObjVars[od] {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func (c *checker) declare(pos token.Pos, s *Symbol) {
	scope := c.scopes[len(c.scopes)-1]
	if _, dup := scope[s.Name]; dup {
		c.errorf(pos, "%s redeclared in this scope", s.Name)
	}
	scope[s.Name] = s
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	if c.obj != nil {
		if s := c.lookupObjVar(c.obj, name); s != nil {
			return s
		}
	}
	if od, ok := c.info.Objects[name]; ok {
		return &Symbol{Name: name, Kind: SymGlobal, Type: Ref(od), Obj: od, CondIndex: -1}
	}
	return nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// ---------------------------------------------------------------- statements

func (c *checker) checkBlock(b *ast.Block) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.DeclStmt:
		vd := s.Decl
		t := c.resolveType(vd.Type)
		if t.Kind == KCond {
			c.errorf(vd.VarPos, "Condition variables must be object variables in a monitor section")
		}
		sym := &Symbol{
			Name: vd.Name, Kind: SymLocal, Type: t,
			Index:     len(c.fn.Params) + len(c.fn.Results) + len(c.fn.Locals),
			CondIndex: -1,
		}
		c.fn.Locals = append(c.fn.Locals, sym)
		c.info.LocalDecls[vd] = sym
		if vd.Init != nil {
			it := c.checkExpr(vd.Init)
			if !AssignableTo(it, t) {
				c.errorf(vd.VarPos, "cannot initialize %s (%s) with %s", vd.Name, t, it)
			}
		}
		c.declare(vd.VarPos, sym)
	case *ast.AssignStmt:
		c.checkAssign(s)
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.IfStmt:
		c.requireBool(s.Cond)
		c.checkBlock(s.Then)
		for _, e := range s.Elifs {
			c.requireBool(e.Cond)
			c.checkBlock(e.Then)
		}
		if s.Else != nil {
			c.checkBlock(s.Else)
		}
	case *ast.LoopStmt:
		c.loops++
		c.checkBlock(s.Body)
		c.loops--
	case *ast.WhileStmt:
		c.requireBool(s.Cond)
		c.loops++
		c.checkBlock(s.Body)
		c.loops--
	case *ast.ExitStmt:
		if c.loops == 0 {
			c.errorf(s.ExitPos, "exit outside loop")
		}
		if s.When != nil {
			c.requireBool(s.When)
		}
	case *ast.ReturnStmt:
		// Always legal; in a process it terminates the thread.
	case *ast.MoveStmt:
		t := c.checkExpr(s.X)
		if !t.IsPointer() {
			c.errorf(s.MovePos, "move requires an object reference, got %s", t)
		}
		c.requireNode(s.To)
	case *ast.FixStmt:
		t := c.checkExpr(s.X)
		if !t.IsPointer() {
			c.errorf(s.FixPos, "fix requires an object reference, got %s", t)
		}
		c.requireNode(s.At)
	case *ast.UnfixStmt:
		t := c.checkExpr(s.X)
		if !t.IsPointer() {
			c.errorf(s.UnfixPos, "unfix requires an object reference, got %s", t)
		}
	case *ast.WaitStmt:
		c.checkCondUse(s.Cond, s.WaitPos, "wait")
	case *ast.SignalStmt:
		c.checkCondUse(s.Cond, s.SigPos, "signal")
	default:
		panic(fmt.Sprintf("types: unknown statement %T", s))
	}
}

func (c *checker) checkCondUse(e ast.Expr, pos token.Pos, what string) {
	t := c.checkExpr(e)
	if t.Kind != KCond {
		c.errorf(pos, "%s requires a Condition variable, got %s", what, t)
		return
	}
	if !c.fn.Monitored {
		c.errorf(pos, "%s may only be used inside a monitored operation", what)
	}
}

func (c *checker) checkAssign(s *ast.AssignStmt) {
	rt := c.checkExpr(s.Rhs)
	switch lhs := s.Lhs.(type) {
	case *ast.Ident:
		sym := c.lookup(lhs.Name)
		if sym == nil {
			c.errorf(lhs.NamePos, "undefined: %s", lhs.Name)
			return
		}
		c.info.facts[lhs.Num] = exprFacts{typ: sym.Type, use: sym}
		if sym.Kind == SymGlobal {
			c.errorf(lhs.NamePos, "cannot assign to object name %s", lhs.Name)
			return
		}
		if sym.Type.Kind == KCond {
			c.errorf(lhs.NamePos, "cannot assign to Condition variable %s", lhs.Name)
			return
		}
		if sym.Kind == SymObjVar {
			if c.fn.Object != sym.Obj {
				c.errorf(lhs.NamePos, "cannot assign to %s.%s from outside", sym.Obj.Name, lhs.Name)
			}
			if c.fn.Op != nil && c.fn.Op.Function {
				c.errorf(lhs.NamePos, "function %s may not assign to object variable %s", c.fn.Op.Name, lhs.Name)
			}
			if sym.Monitored && !c.fn.Monitored && c.fn.Kind == FuncOp {
				c.errorf(lhs.NamePos, "monitored variable %s assigned outside the monitor", lhs.Name)
			}
		}
		if !AssignableTo(rt, sym.Type) {
			c.errorf(lhs.NamePos, "cannot assign %s to %s (%s)", rt, lhs.Name, sym.Type)
		}
	case *ast.Index:
		at := c.checkExpr(lhs.X)
		c.requireInt(lhs.I)
		if at.Kind != KArray {
			c.errorf(lhs.LBPos, "indexed assignment requires an array, got %s", at)
			return
		}
		c.info.facts[lhs.Num].typ = at.Elem
		if !AssignableTo(rt, at.Elem) {
			c.errorf(lhs.LBPos, "cannot assign %s to element of %s", rt, at)
		}
	default:
		c.errorf(s.Lhs.Pos(), "invalid assignment target")
	}
}

func (c *checker) requireBool(e ast.Expr) {
	if t := c.checkExpr(e); t.Kind != KBool {
		c.errorf(e.Pos(), "condition must be Bool, got %s", t)
	}
}

func (c *checker) requireInt(e ast.Expr) {
	if t := c.checkExpr(e); t.Kind != KInt {
		c.errorf(e.Pos(), "expected Int, got %s", t)
	}
}

func (c *checker) requireNode(e ast.Expr) {
	if t := c.checkExpr(e); t.Kind != KNode {
		c.errorf(e.Pos(), "expected Node, got %s", t)
	}
}

// ---------------------------------------------------------------- expressions

func (c *checker) checkExpr(e ast.Expr) *Type {
	t := c.exprType(e)
	c.info.facts[e.ExprNum()].typ = t
	return t
}

func (c *checker) exprType(e ast.Expr) *Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return Int
	case *ast.RealLit:
		return Real
	case *ast.StringLit:
		return String
	case *ast.BoolLit:
		return Bool
	case *ast.NilLit:
		return Nil
	case *ast.SelfExpr:
		if c.obj == nil {
			c.errorf(e.SelfPos, "self outside object")
			return Any
		}
		return Ref(c.obj)
	case *ast.Ident:
		sym := c.lookup(e.Name)
		if sym == nil {
			c.errorf(e.NamePos, "undefined: %s", e.Name)
			return Any
		}
		c.info.facts[e.Num].use = sym
		if sym.Kind == SymObjVar {
			if c.fn.Object != sym.Obj {
				c.errorf(e.NamePos, "cannot access %s.%s from outside", sym.Obj.Name, e.Name)
			} else if sym.Monitored && !c.fn.Monitored && c.fn.Kind == FuncOp {
				c.errorf(e.NamePos, "monitored variable %s read outside the monitor", e.Name)
			}
		}
		if sym.Kind == SymGlobal {
			c.errorf(e.NamePos, "object name %s is not a value; use `new %s`", e.Name, e.Name)
			return sym.Type
		}
		return sym.Type
	case *ast.Unary:
		t := c.checkExpr(e.X)
		switch e.Op {
		case token.Minus:
			if t.Kind != KInt && t.Kind != KReal {
				c.errorf(e.OpPos, "operator - requires Int or Real, got %s", t)
				return Int
			}
			return t
		case token.Not:
			if t.Kind != KBool {
				c.errorf(e.OpPos, "operator ! requires Bool, got %s", t)
			}
			return Bool
		}
		return Void
	case *ast.Binary:
		return c.checkBinary(e)
	case *ast.Invoke:
		return c.checkInvoke(e, false)
	case *ast.New:
		return c.checkNew(e)
	case *ast.Index:
		at := c.checkExpr(e.X)
		c.requireInt(e.I)
		switch at.Kind {
		case KArray:
			return at.Elem
		case KString:
			return Int // byte value
		}
		c.errorf(e.LBPos, "cannot index %s", at)
		return Int
	}
	panic(fmt.Sprintf("types: unknown expression %T", e))
}

func (c *checker) checkBinary(e *ast.Binary) *Type {
	xt := c.checkExpr(e.X)
	yt := c.checkExpr(e.Y)
	switch e.Op {
	case token.Plus:
		if xt.Kind == KString && yt.Kind == KString {
			return String
		}
		fallthrough
	case token.Minus, token.Star, token.Slash, token.Percent:
		if xt.Kind == KInt && yt.Kind == KInt {
			return Int
		}
		num := func(t *Type) bool { return t.Kind == KInt || t.Kind == KReal }
		if num(xt) && num(yt) && e.Op != token.Percent {
			return Real
		}
		c.errorf(e.X.Pos(), "operator %s not defined on %s and %s", e.Op, xt, yt)
		return Int
	case token.Eq, token.NotEq:
		ok := Equal(xt, yt) ||
			(xt.IsPointer() && yt.IsPointer()) ||
			(xt.Kind == KInt && yt.Kind == KReal) || (xt.Kind == KReal && yt.Kind == KInt)
		if !ok {
			c.errorf(e.X.Pos(), "cannot compare %s and %s", xt, yt)
		}
		return Bool
	case token.Lt, token.Le, token.Gt, token.Ge:
		ok := (xt.Kind == KInt || xt.Kind == KReal) && (yt.Kind == KInt || yt.Kind == KReal) ||
			xt.Kind == KString && yt.Kind == KString
		if !ok {
			c.errorf(e.X.Pos(), "operator %s not defined on %s and %s", e.Op, xt, yt)
		}
		return Bool
	case token.And, token.Or:
		if xt.Kind != KBool || yt.Kind != KBool {
			c.errorf(e.X.Pos(), "operator %s requires Bool operands", e.Op)
		}
		return Bool
	}
	c.errorf(e.X.Pos(), "unknown operator %s", e.Op)
	return Void
}

func (c *checker) checkNew(e *ast.New) *Type {
	t := c.resolveType(e.Type)
	switch t.Kind {
	case KArray:
		if len(e.Args) != 1 {
			c.errorf(e.NewPos, "new Array[...] takes exactly one length argument")
		} else {
			c.requireInt(e.Args[0])
		}
		return t
	case KRef:
		vars := c.info.ObjVars[t.Obj]
		if len(e.Args) > len(vars) {
			c.errorf(e.NewPos, "new %s: %d arguments for %d object variables", t.Obj.Name, len(e.Args), len(vars))
			return t
		}
		for i, a := range e.Args {
			at := c.checkExpr(a)
			if !AssignableTo(at, vars[i].Type) {
				c.errorf(a.Pos(), "new %s: argument %d has type %s, variable %s is %s",
					t.Obj.Name, i+1, at, vars[i].Name, vars[i].Type)
			}
		}
		return t
	}
	c.errorf(e.NewPos, "cannot create value of type %s", t)
	return t
}

// builtinSig describes a builtin's arity and result.
type builtinSig struct {
	params []*Type // nil means variadic-any (print)
	result *Type
}

var builtins = map[string]builtinSig{
	ast.BuiltinPrint:    {params: nil, result: Void},
	ast.BuiltinNodes:    {params: []*Type{}, result: Int},
	ast.BuiltinThisNode: {params: []*Type{}, result: Node},
	ast.BuiltinNodeAt:   {params: []*Type{Int}, result: Node},
	ast.BuiltinLocate:   {params: []*Type{Any}, result: Node},
	ast.BuiltinTimeMS:   {params: []*Type{}, result: Int},
	ast.BuiltinYield:    {params: []*Type{}, result: Void},
	ast.BuiltinStr:      {params: []*Type{Any}, result: String}, // Any here means Int/Real/Bool/Node
	ast.BuiltinAbs:      {params: []*Type{Int}, result: Int},
}

func (c *checker) checkInvoke(e *ast.Invoke, _ bool) *Type {
	if e.Recv == nil {
		// Bare call: self-operation first, then builtin.
		if c.obj != nil && c.obj.Op(e.OpName) != nil {
			op := c.obj.Op(e.OpName)
			c.info.facts[e.Num].target = &InvokeTarget{Op: op, OnSelf: true}
			return c.checkOpCall(e, op)
		}
		sig, ok := builtins[e.OpName]
		if !ok {
			c.errorf(e.OpPos, "undefined operation or builtin %s", e.OpName)
			return Any
		}
		c.info.facts[e.Num].target = &InvokeTarget{Builtin: e.OpName}
		return c.checkBuiltin(e, sig)
	}
	rt := c.checkExpr(e.Recv)
	switch rt.Kind {
	case KArray:
		if e.OpName == ast.BuiltinSize {
			if len(e.Args) != 0 {
				c.errorf(e.OpPos, "size() takes no arguments")
			}
			c.info.facts[e.Num].target = &InvokeTarget{Builtin: ast.BuiltinSize}
			return Int
		}
		c.errorf(e.OpPos, "arrays have no operation %s", e.OpName)
		return Any
	case KString:
		if e.OpName == ast.BuiltinSize {
			if len(e.Args) != 0 {
				c.errorf(e.OpPos, "size() takes no arguments")
			}
			c.info.facts[e.Num].target = &InvokeTarget{Builtin: ast.BuiltinSize}
			return Int
		}
		c.errorf(e.OpPos, "strings have no operation %s", e.OpName)
		return Any
	case KRef:
		op := rt.Obj.Op(e.OpName)
		if op == nil {
			c.errorf(e.OpPos, "%s has no operation %s", rt.Obj.Name, e.OpName)
			return Any
		}
		c.info.facts[e.Num].target = &InvokeTarget{Op: op}
		return c.checkOpCall(e, op)
	case KAny:
		// Dynamic dispatch: arguments are checked for arity at run time.
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		c.info.facts[e.Num].target = &InvokeTarget{Dynamic: true}
		return Any
	}
	c.errorf(e.OpPos, "cannot invoke %s on %s", e.OpName, rt)
	return Any
}

func (c *checker) checkOpCall(e *ast.Invoke, op *ast.OpDecl) *Type {
	f := c.info.FuncOf[op]
	if len(e.Args) != len(f.Params) {
		c.errorf(e.OpPos, "%s takes %d arguments, got %d", op.Name, len(f.Params), len(e.Args))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(f.Params) && !AssignableTo(at, f.Params[i].Type) {
			c.errorf(a.Pos(), "argument %d of %s: cannot use %s as %s", i+1, op.Name, at, f.Params[i].Type)
		}
	}
	switch len(f.Results) {
	case 0:
		return Void
	case 1:
		return f.Results[0].Type
	default:
		// Multiple results only usable in statement position; expression use
		// yields the first result.
		return f.Results[0].Type
	}
}

func (c *checker) checkBuiltin(e *ast.Invoke, sig builtinSig) *Type {
	if sig.params == nil { // print: variadic
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return sig.result
	}
	if len(e.Args) != len(sig.params) {
		c.errorf(e.OpPos, "%s takes %d arguments, got %d", e.OpName, len(sig.params), len(e.Args))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i >= len(sig.params) {
			continue
		}
		want := sig.params[i]
		switch e.OpName {
		case ast.BuiltinLocate:
			if !at.IsPointer() {
				c.errorf(a.Pos(), "locate requires an object reference, got %s", at)
			}
		case ast.BuiltinStr:
			switch at.Kind {
			case KInt, KReal, KBool, KNode, KString:
			default:
				c.errorf(a.Pos(), "str cannot format %s", at)
			}
		default:
			if !AssignableTo(at, want) {
				c.errorf(a.Pos(), "argument %d of %s: cannot use %s as %s", i+1, e.OpName, at, want)
			}
		}
	}
	return sig.result
}
