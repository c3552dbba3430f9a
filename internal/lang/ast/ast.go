// Package ast defines the abstract syntax tree of the Emerald-subset
// language. A Program is a set of object declarations; execution starts at
// the process sections of objects instantiated by the loader (every object
// declaration with a process body gets one instance at program start, in
// declaration order).
package ast

import "repro/internal/lang/token"

// ---------------------------------------------------------------- program

// Program is a parsed compilation unit.
type Program struct {
	Objects []*ObjectDecl
	// NumExprs is the number of expression nodes: their Nums are 0 to
	// NumExprs-1, each used once.
	NumExprs int
}

// ObjectDecl declares an object constructor ("class" in this subset;
// instances are created with `new Name(...)`, plus one implicit instance per
// declaration with a process body).
type ObjectDecl struct {
	NamePos   token.Pos
	Name      string
	Immutable bool
	Vars      []*VarDecl // unmonitored object variables
	Monitor   *MonitorDecl
	Ops       []*OpDecl
	Initially *Block // runs at creation, before the process
	Process   *Block // initial thread body, if any
}

// Op returns the operation (monitored or not) named name, or nil.
func (d *ObjectDecl) Op(name string) *OpDecl {
	for _, op := range d.Ops {
		if op.Name == name {
			return op
		}
	}
	if d.Monitor != nil {
		for _, op := range d.Monitor.Ops {
			if op.Name == name {
				return op
			}
		}
	}
	return nil
}

// AllVars returns object variables, unmonitored first then monitored.
func (d *ObjectDecl) AllVars() []*VarDecl {
	vs := append([]*VarDecl(nil), d.Vars...)
	if d.Monitor != nil {
		vs = append(vs, d.Monitor.Vars...)
	}
	return vs
}

// AllOps returns all operations, unmonitored first then monitored.
func (d *ObjectDecl) AllOps() []*OpDecl {
	ops := append([]*OpDecl(nil), d.Ops...)
	if d.Monitor != nil {
		ops = append(ops, d.Monitor.Ops...)
	}
	return ops
}

// MonitorDecl is the monitored section of an object: its variables may only
// be touched by its operations, which hold the object monitor while running.
type MonitorDecl struct {
	MonPos token.Pos
	Vars   []*VarDecl
	Ops    []*OpDecl
}

// VarDecl declares an object variable or a local variable.
type VarDecl struct {
	VarPos token.Pos
	Name   string
	Type   *TypeExpr
	Init   Expr // optional
}

// Param is a formal argument or result of an operation.
type Param struct {
	NamePos token.Pos
	Name    string
	Type    *TypeExpr
}

// OpDecl declares an operation or function. Results are named; falling off
// the end (or `return`) yields the current values of the result variables.
type OpDecl struct {
	OpPos     token.Pos
	Name      string
	Function  bool // declared with `function`: must not mutate object state
	Monitored bool // set by the parser for ops inside a monitor section
	Params    []*Param
	Results   []*Param
	Body      *Block
}

// TypeExpr is a syntactic type: a named type or Array[Elem].
type TypeExpr struct {
	NamePos token.Pos
	Name    string    // "Int", "Bool", "Real", "String", "Node", "Condition", "Any", object name, "Array"
	Elem    *TypeExpr // for Array
}

// ---------------------------------------------------------------- statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	stmt()
}

// Block is a statement sequence.
type Block struct {
	LPos  token.Pos
	Stmts []Stmt
}

// DeclStmt is a local variable declaration.
type DeclStmt struct{ Decl *VarDecl }

func (s *DeclStmt) stmt() {}

// AssignStmt assigns Rhs to Lhs (an identifier or index expression).
type AssignStmt struct {
	Lhs Expr
	Rhs Expr
}

func (s *AssignStmt) stmt() {}

// ExprStmt evaluates an expression for effect (an invocation).
type ExprStmt struct{ X Expr }

func (s *ExprStmt) stmt() {}

// IfStmt is if/elseif/else. Elifs pair conditions with blocks.
type IfStmt struct {
	IfPos token.Pos
	Cond  Expr
	Then  *Block
	Elifs []ElseIf
	Else  *Block // may be nil
}

// ElseIf is one elseif arm.
type ElseIf struct {
	Cond Expr
	Then *Block
}

func (s *IfStmt) stmt() {}

// LoopStmt is `loop ... end`; exits via ExitStmt.
type LoopStmt struct {
	LoopPos token.Pos
	Body    *Block
}

func (s *LoopStmt) stmt() {}

// WhileStmt is `while cond do ... end`.
type WhileStmt struct {
	WhilePos token.Pos
	Cond     Expr
	Body     *Block
}

func (s *WhileStmt) stmt() {}

// ExitStmt leaves the innermost loop, optionally `exit when cond`.
type ExitStmt struct {
	ExitPos token.Pos
	When    Expr // may be nil
}

func (s *ExitStmt) stmt() {}

// ReturnStmt returns from the current operation (result variables carry the
// values) or terminates the current process.
type ReturnStmt struct{ RetPos token.Pos }

func (s *ReturnStmt) stmt() {}

// MoveStmt is `move x to target` (target: Node expression).
type MoveStmt struct {
	MovePos token.Pos
	X       Expr
	To      Expr
}

func (s *MoveStmt) stmt() {}

// FixStmt is `fix x at target` or `refix x at target`.
type FixStmt struct {
	FixPos token.Pos
	Refix  bool
	X      Expr
	At     Expr
}

func (s *FixStmt) stmt() {}

// UnfixStmt is `unfix x`.
type UnfixStmt struct {
	UnfixPos token.Pos
	X        Expr
}

func (s *UnfixStmt) stmt() {}

// WaitStmt is `wait c` on a Condition variable; the monitor is released while
// waiting and reacquired before continuing.
type WaitStmt struct {
	WaitPos token.Pos
	Cond    Expr
}

func (s *WaitStmt) stmt() {}

// SignalStmt is `signal c`: wakes one waiter, if any.
type SignalStmt struct {
	SigPos token.Pos
	Cond   Expr
}

func (s *SignalStmt) stmt() {}

// ---------------------------------------------------------------- expressions

// Expr is implemented by all expression nodes. Only expressions report a
// position: every front-end error site names one.
type Expr interface {
	Pos() token.Pos
	ExprNum() int
	expr()
}

// Num is an expression's number. The parser gives each expression node the
// next number as it builds it, so the type checker can keep what it learns
// about expressions in slices indexed by number instead of maps keyed by
// node. Every expression struct embeds one.
type Num int32

// ExprNum returns the expression's number.
func (n Num) ExprNum() int { return int(n) }

// Ident names a variable, parameter, result, or object declaration.
type Ident struct {
	Num
	NamePos token.Pos
	Name    string
}

func (e *Ident) Pos() token.Pos { return e.NamePos }
func (e *Ident) expr()          {}

// IntLit is an integer literal.
type IntLit struct {
	Num
	LitPos token.Pos
	Value  int64
}

func (e *IntLit) Pos() token.Pos { return e.LitPos }
func (e *IntLit) expr()          {}

// RealLit is a floating-point literal.
type RealLit struct {
	Num
	LitPos token.Pos
	Value  float64
}

func (e *RealLit) Pos() token.Pos { return e.LitPos }
func (e *RealLit) expr()          {}

// StringLit is a string literal (decoded).
type StringLit struct {
	Num
	LitPos token.Pos
	Value  string
}

func (e *StringLit) Pos() token.Pos { return e.LitPos }
func (e *StringLit) expr()          {}

// BoolLit is true/false.
type BoolLit struct {
	Num
	LitPos token.Pos
	Value  bool
}

func (e *BoolLit) Pos() token.Pos { return e.LitPos }
func (e *BoolLit) expr()          {}

// NilLit is the nil reference.
type NilLit struct {
	Num
	LitPos token.Pos
}

func (e *NilLit) Pos() token.Pos { return e.LitPos }
func (e *NilLit) expr()          {}

// SelfExpr is `self`.
type SelfExpr struct {
	Num
	SelfPos token.Pos
}

func (e *SelfExpr) Pos() token.Pos { return e.SelfPos }
func (e *SelfExpr) expr()          {}

// Unary is -x or !x.
type Unary struct {
	Num
	OpPos token.Pos
	Op    token.Kind // Minus or Not
	X     Expr
}

func (e *Unary) Pos() token.Pos { return e.OpPos }
func (e *Unary) expr()          {}

// Binary is x op y.
type Binary struct {
	Num
	Op   token.Kind
	X, Y Expr
}

func (e *Binary) Pos() token.Pos { return e.X.Pos() }
func (e *Binary) expr()          {}

// Invoke is recv.op(args), or a builtin/self call op(args) with Recv nil.
type Invoke struct {
	Num
	Recv   Expr // nil for bare calls (self-invocation or builtin)
	OpPos  token.Pos
	OpName string
	Args   []Expr
}

func (e *Invoke) Pos() token.Pos {
	if e.Recv != nil {
		return e.Recv.Pos()
	}
	return e.OpPos
}
func (e *Invoke) expr() {}

// New creates an object: `new Name(args)` or `new Array[T](n)`.
type New struct {
	Num
	NewPos token.Pos
	Type   *TypeExpr
	Args   []Expr
}

func (e *New) Pos() token.Pos { return e.NewPos }
func (e *New) expr()          {}

// Index is a[i].
type Index struct {
	Num
	X     Expr
	LBPos token.Pos
	I     Expr
}

func (e *Index) Pos() token.Pos { return e.X.Pos() }
func (e *Index) expr()          {}

// Builtin names recognized for bare Invoke calls. The type checker maps a
// bare call to one of these when the name matches and no self-operation
// shadows it.
const (
	BuiltinPrint    = "print"    // print(args...): writes values, newline-terminated
	BuiltinNodes    = "nodes"    // nodes() Int: number of nodes in the network
	BuiltinThisNode = "thisnode" // thisnode() Node: node currently executing
	BuiltinNodeAt   = "node"     // node(i Int) Node: i'th node (0-based)
	BuiltinLocate   = "locate"   // locate(x) Node: current location of object x
	BuiltinTimeMS   = "timems"   // timems() Int: simulated time, milliseconds
	BuiltinYield    = "yield"    // yield(): let other threads run
	BuiltinStr      = "str"      // str(x Int|Real|Bool) String
	BuiltinAbs      = "abs"      // abs(x Int) Int
	BuiltinSize     = "size"     // method-style on arrays/strings: a.size()
)
