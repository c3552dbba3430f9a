// Package parser builds an AST from Emerald-subset source text.
//
// The grammar (see DESIGN.md §3) is LL(1) apart from assignment-vs-expression
// statements, which are resolved by parsing an expression and checking for a
// following "<-".
package parser

import (
	"fmt"
	"strconv"

	"repro/internal/lang/ast"
	"repro/internal/lang/lexer"
	"repro/internal/lang/token"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects parse errors.
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

type parser struct {
	lex  *lexer.Lexer
	tok  token.Token // current token
	next token.Token // one-token lookahead
	errs ErrorList
	// nexprs is the number of expression nodes built so far, and so the
	// next one's ast.Num.
	nexprs int
}

// Parse parses a complete program. If err is non-nil it is an ErrorList.
func Parse(src string) (*ast.Program, error) {
	p := &parser{lex: lexer.New(src)}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	prog := p.parseProgram()
	prog.NumExprs = p.nexprs
	for _, le := range p.lex.Errors() {
		p.errs = append(p.errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	if len(p.errs) > 0 {
		return prog, p.errs
	}
	return prog, nil
}

// num numbers the expression node being built.
func (p *parser) num() ast.Num {
	n := ast.Num(p.nexprs)
	p.nexprs++
	return n
}

func (p *parser) advance() {
	p.tok = p.next
	p.next = p.lex.Next()
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	// Cap the error count so a badly broken file terminates quickly.
	if len(p.errs) < 25 {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		return token.Token{Kind: k, Pos: t.Pos}
	}
	p.advance()
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

// expectIdent consumes an identifier and returns its spelling.
func (p *parser) expectIdent() (string, token.Pos) {
	t := p.tok
	if t.Kind != token.Ident {
		p.errorf(t.Pos, "expected identifier, found %s", t)
		p.skipTo(token.KwEnd)
		return "_", t.Pos
	}
	p.advance()
	return t.Lit, t.Pos
}

// acceptTrailing consumes an optional trailing keyword after `end` (as in
// `end if`, `end while`, `end monitor`) only when it sits on the same line
// as the `end`: otherwise a following statement or section that begins with
// the same keyword would be swallowed.
func (p *parser) acceptTrailing(k token.Kind, endLine int) {
	if p.tok.Kind == k && p.tok.Pos.Line == endLine {
		p.advance()
	}
}

// skipTo advances until one of the kinds (or EOF) is current. Used for error
// recovery so one bad declaration does not cascade.
func (p *parser) skipTo(kinds ...token.Kind) {
	for p.tok.Kind != token.EOF {
		for _, k := range kinds {
			if p.tok.Kind == k {
				return
			}
		}
		p.advance()
	}
}

// ---------------------------------------------------------------- program

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.KwImmutable, token.KwObject:
			prog.Objects = append(prog.Objects, p.parseObject())
		default:
			p.errorf(p.tok.Pos, "expected object declaration, found %s", p.tok)
			p.skipTo(token.KwObject, token.KwImmutable)
		}
	}
	return prog
}

func (p *parser) parseObject() *ast.ObjectDecl {
	d := &ast.ObjectDecl{}
	if p.accept(token.KwImmutable) {
		d.Immutable = true
	}
	p.expect(token.KwObject)
	d.Name, d.NamePos = p.expectIdent()
	for p.tok.Kind != token.KwEnd && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.KwVar:
			d.Vars = append(d.Vars, p.parseVarDecl())
		case token.KwOperation, token.KwFunction:
			d.Ops = append(d.Ops, p.parseOp(false))
		case token.KwMonitor:
			if d.Monitor != nil {
				p.errorf(p.tok.Pos, "object %s has more than one monitor section", d.Name)
			}
			d.Monitor = p.parseMonitor()
		case token.KwInitially:
			pos := p.tok.Pos
			p.advance()
			if d.Initially != nil {
				p.errorf(pos, "object %s has more than one initially section", d.Name)
			}
			d.Initially = p.parseBlock(pos)
			endTok := p.expect(token.KwEnd)
			p.acceptTrailing(token.KwInitially, endTok.Pos.Line)
		case token.KwProcess:
			pos := p.tok.Pos
			p.advance()
			if d.Process != nil {
				p.errorf(pos, "object %s has more than one process section", d.Name)
			}
			d.Process = p.parseBlock(pos)
			endTok := p.expect(token.KwEnd)
			p.acceptTrailing(token.KwProcess, endTok.Pos.Line)
		default:
			p.errorf(p.tok.Pos, "unexpected %s in object body", p.tok)
			p.advance()
		}
	}
	p.expect(token.KwEnd)
	// Optional trailing object name: `end Counter`.
	if p.tok.Kind == token.Ident {
		if p.tok.Lit != d.Name {
			p.errorf(p.tok.Pos, "end %s does not match object %s", p.tok.Lit, d.Name)
		}
		p.advance()
	}
	return d
}

func (p *parser) parseMonitor() *ast.MonitorDecl {
	m := &ast.MonitorDecl{MonPos: p.tok.Pos}
	p.expect(token.KwMonitor)
	for p.tok.Kind != token.KwEnd && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.KwVar:
			m.Vars = append(m.Vars, p.parseVarDecl())
		case token.KwOperation, token.KwFunction:
			op := p.parseOp(true)
			m.Ops = append(m.Ops, op)
		default:
			p.errorf(p.tok.Pos, "unexpected %s in monitor section", p.tok)
			p.advance()
		}
	}
	endTok := p.expect(token.KwEnd)
	p.acceptTrailing(token.KwMonitor, endTok.Pos.Line)
	return m
}

func (p *parser) parseVarDecl() *ast.VarDecl {
	d := &ast.VarDecl{VarPos: p.tok.Pos}
	p.expect(token.KwVar)
	d.Name, _ = p.expectIdent()
	p.expect(token.Colon)
	d.Type = p.parseType()
	if p.accept(token.Assign) {
		d.Init = p.parseExpr()
	}
	return d
}

func (p *parser) parseOp(monitored bool) *ast.OpDecl {
	d := &ast.OpDecl{OpPos: p.tok.Pos, Monitored: monitored}
	d.Function = p.tok.Kind == token.KwFunction
	p.advance() // operation | function
	d.Name, _ = p.expectIdent()
	p.expect(token.LParen)
	d.Params = p.parseParams()
	p.expect(token.RParen)
	if p.accept(token.Arrow) {
		p.expect(token.LParen)
		d.Results = p.parseParams()
		p.expect(token.RParen)
	}
	d.Body = p.parseBlock(p.tok.Pos)
	p.expect(token.KwEnd)
	if p.tok.Kind == token.Ident {
		if p.tok.Lit != d.Name {
			p.errorf(p.tok.Pos, "end %s does not match operation %s", p.tok.Lit, d.Name)
		}
		p.advance()
	}
	return d
}

func (p *parser) parseParams() []*ast.Param {
	var ps []*ast.Param
	if p.tok.Kind == token.RParen {
		return ps
	}
	for {
		name, pos := p.expectIdent()
		p.expect(token.Colon)
		ps = append(ps, &ast.Param{NamePos: pos, Name: name, Type: p.parseType()})
		if !p.accept(token.Comma) {
			return ps
		}
	}
}

func (p *parser) parseType() *ast.TypeExpr {
	name, pos := p.expectIdent()
	t := &ast.TypeExpr{NamePos: pos, Name: name}
	if name == "Array" {
		p.expect(token.LBracket)
		t.Elem = p.parseType()
		p.expect(token.RBracket)
	}
	return t
}

// ---------------------------------------------------------------- statements

// blockEnders lists token kinds that terminate a statement block.
func blockEnds(k token.Kind) bool {
	switch k {
	case token.KwEnd, token.KwElse, token.KwElseif, token.EOF:
		return true
	}
	return false
}

func (p *parser) parseBlock(pos token.Pos) *ast.Block {
	b := &ast.Block{LPos: pos}
	for !blockEnds(p.tok.Kind) {
		before := p.tok
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.tok == before && p.tok.Kind != token.EOF {
			// No progress (error recovery); skip the offending token.
			p.advance()
		}
	}
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.KwVar:
		return &ast.DeclStmt{Decl: p.parseVarDecl()}
	case token.KwIf:
		return p.parseIf()
	case token.KwLoop:
		pos := p.tok.Pos
		p.advance()
		body := p.parseBlock(pos)
		endTok := p.expect(token.KwEnd)
		p.acceptTrailing(token.KwLoop, endTok.Pos.Line)
		return &ast.LoopStmt{LoopPos: pos, Body: body}
	case token.KwWhile:
		pos := p.tok.Pos
		p.advance()
		cond := p.parseExpr()
		p.expect(token.KwDo)
		body := p.parseBlock(pos)
		endTok := p.expect(token.KwEnd)
		p.acceptTrailing(token.KwWhile, endTok.Pos.Line)
		return &ast.WhileStmt{WhilePos: pos, Cond: cond, Body: body}
	case token.KwExit:
		pos := p.tok.Pos
		p.advance()
		s := &ast.ExitStmt{ExitPos: pos}
		if p.accept(token.KwWhen) {
			s.When = p.parseExpr()
		}
		return s
	case token.KwReturn:
		pos := p.tok.Pos
		p.advance()
		return &ast.ReturnStmt{RetPos: pos}
	case token.KwMove:
		pos := p.tok.Pos
		p.advance()
		x := p.parseExpr()
		p.expect(token.KwTo)
		return &ast.MoveStmt{MovePos: pos, X: x, To: p.parseExpr()}
	case token.KwFix, token.KwRefix:
		pos := p.tok.Pos
		refix := p.tok.Kind == token.KwRefix
		p.advance()
		x := p.parseExpr()
		p.expect(token.KwAt)
		return &ast.FixStmt{FixPos: pos, Refix: refix, X: x, At: p.parseExpr()}
	case token.KwUnfix:
		pos := p.tok.Pos
		p.advance()
		return &ast.UnfixStmt{UnfixPos: pos, X: p.parseExpr()}
	case token.KwWait:
		pos := p.tok.Pos
		p.advance()
		return &ast.WaitStmt{WaitPos: pos, Cond: p.parseExpr()}
	case token.KwSignal:
		pos := p.tok.Pos
		p.advance()
		return &ast.SignalStmt{SigPos: pos, Cond: p.parseExpr()}
	}
	// Expression statement or assignment.
	x := p.parseExpr()
	if p.accept(token.Assign) {
		switch x.(type) {
		case *ast.Ident, *ast.Index:
		default:
			p.errorf(x.Pos(), "left side of <- must be a variable or array element")
		}
		return &ast.AssignStmt{Lhs: x, Rhs: p.parseExpr()}
	}
	if _, ok := x.(*ast.Invoke); !ok {
		p.errorf(x.Pos(), "expression used as statement must be an invocation")
	}
	return &ast.ExprStmt{X: x}
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.KwIf)
	s := &ast.IfStmt{IfPos: pos, Cond: p.parseExpr()}
	p.expect(token.KwThen)
	s.Then = p.parseBlock(pos)
	for p.tok.Kind == token.KwElseif {
		epos := p.tok.Pos
		p.advance()
		cond := p.parseExpr()
		p.expect(token.KwThen)
		s.Elifs = append(s.Elifs, ast.ElseIf{Cond: cond, Then: p.parseBlock(epos)})
	}
	if p.accept(token.KwElse) {
		s.Else = p.parseBlock(pos)
	}
	endTok := p.expect(token.KwEnd)
	p.acceptTrailing(token.KwIf, endTok.Pos.Line)
	return s
}

// ---------------------------------------------------------------- expressions

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := p.tok.Kind.Precedence()
		if prec < minPrec {
			return x
		}
		op := p.tok.Kind
		p.advance()
		y := p.parseBinary(prec + 1)
		x = &ast.Binary{Num: p.num(), Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.tok.Kind {
	case token.Minus, token.Not:
		pos, op := p.tok.Pos, p.tok.Kind
		p.advance()
		return &ast.Unary{Num: p.num(), OpPos: pos, Op: op, X: p.parseUnary()}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.tok.Kind {
		case token.Dot:
			p.advance()
			name, pos := p.expectIdent()
			inv := &ast.Invoke{Num: p.num(), Recv: x, OpPos: pos, OpName: name}
			p.expect(token.LParen)
			inv.Args = p.parseArgs()
			p.expect(token.RParen)
			x = inv
		case token.LBracket:
			pos := p.tok.Pos
			p.advance()
			i := p.parseExpr()
			p.expect(token.RBracket)
			x = &ast.Index{Num: p.num(), X: x, LBPos: pos, I: i}
		default:
			return x
		}
	}
}

func (p *parser) parseArgs() []ast.Expr {
	var args []ast.Expr
	if p.tok.Kind == token.RParen {
		return args
	}
	for {
		args = append(args, p.parseExpr())
		if !p.accept(token.Comma) {
			return args
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.tok
	switch t.Kind {
	case token.Int:
		p.advance()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Lit)
		}
		return &ast.IntLit{Num: p.num(), LitPos: t.Pos, Value: v}
	case token.Real:
		p.advance()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid real literal %q", t.Lit)
		}
		return &ast.RealLit{Num: p.num(), LitPos: t.Pos, Value: v}
	case token.String:
		p.advance()
		return &ast.StringLit{Num: p.num(), LitPos: t.Pos, Value: t.Lit}
	case token.KwTrue, token.KwFalse:
		p.advance()
		return &ast.BoolLit{Num: p.num(), LitPos: t.Pos, Value: t.Kind == token.KwTrue}
	case token.KwNil:
		p.advance()
		return &ast.NilLit{Num: p.num(), LitPos: t.Pos}
	case token.KwSelf:
		p.advance()
		return &ast.SelfExpr{Num: p.num(), SelfPos: t.Pos}
	case token.KwNew:
		p.advance()
		n := &ast.New{Num: p.num(), NewPos: t.Pos, Type: p.parseType()}
		if p.accept(token.LParen) {
			n.Args = p.parseArgs()
			p.expect(token.RParen)
		}
		return n
	case token.LParen:
		p.advance()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	case token.Ident:
		p.advance()
		if p.tok.Kind == token.LParen {
			// Bare call: builtin or self-operation.
			inv := &ast.Invoke{Num: p.num(), OpPos: t.Pos, OpName: t.Lit}
			p.expect(token.LParen)
			inv.Args = p.parseArgs()
			p.expect(token.RParen)
			return inv
		}
		return &ast.Ident{Num: p.num(), NamePos: t.Pos, Name: t.Lit}
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.advance()
	return &ast.IntLit{Num: p.num(), LitPos: t.Pos}
}
