// Package token defines the lexical tokens of the Emerald-subset language
// compiled by this system, together with source positions.
//
// The language is the vehicle for the paper's mobility experiments: it is a
// small object language in the spirit of Emerald [BHJL86], with objects,
// operations, monitors, processes, and explicit mobility statements
// (move/fix/unfix/locate).
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds follow KeywordBeg/KeywordEnd so the lexer can
// classify identifiers with a single map lookup.
const (
	Illegal Kind = iota
	EOF

	// Literals and identifiers.
	Ident  // counter
	Int    // 123
	Real   // 1.5
	String // "abc"

	// Operators and delimiters.
	Assign   // <-
	Arrow    // ->
	Plus     // +
	Minus    // -
	Star     // *
	Slash    // /
	Percent  // %
	Eq       // ==
	NotEq    // !=
	Lt       // <
	Le       // <=
	Gt       // >
	Ge       // >=
	And      // &
	Or       // |
	Not      // !
	LParen   // (
	RParen   // )
	LBracket // [
	RBracket // ]
	Comma    // ,
	Colon    // :
	Dot      // .

	keywordBeg
	KwObject
	KwEnd
	KwVar
	KwConst
	KwOperation
	KwFunction
	KwProcess
	KwMonitor
	KwInitially
	KwImmutable
	KwIf
	KwThen
	KwElseif
	KwElse
	KwLoop
	KwWhile
	KwDo
	KwExit
	KwWhen
	KwReturn
	KwMove
	KwTo
	KwFix
	KwAt
	KwUnfix
	KwRefix
	KwNew
	KwSelf
	KwNil
	KwTrue
	KwFalse
	KwWait
	KwSignal
	keywordEnd
)

var kindNames = map[Kind]string{
	Illegal: "ILLEGAL", EOF: "EOF",
	Ident: "IDENT", Int: "INT", Real: "REAL", String: "STRING",
	Assign: "<-", Arrow: "->", Plus: "+", Minus: "-", Star: "*",
	Slash: "/", Percent: "%", Eq: "==", NotEq: "!=", Lt: "<", Le: "<=",
	Gt: ">", Ge: ">=", And: "&", Or: "|", Not: "!",
	LParen: "(", RParen: ")", LBracket: "[", RBracket: "]",
	Comma: ",", Colon: ":", Dot: ".",
	KwObject: "object", KwEnd: "end", KwVar: "var", KwConst: "const",
	KwOperation: "operation", KwFunction: "function", KwProcess: "process",
	KwMonitor: "monitor", KwInitially: "initially", KwImmutable: "immutable",
	KwIf: "if", KwThen: "then", KwElseif: "elseif", KwElse: "else",
	KwLoop: "loop", KwWhile: "while", KwDo: "do", KwExit: "exit",
	KwWhen: "when", KwReturn: "return", KwMove: "move", KwTo: "to",
	KwFix: "fix", KwAt: "at", KwUnfix: "unfix", KwRefix: "refix",
	KwNew: "new", KwSelf: "self", KwNil: "nil",
	KwTrue: "true", KwFalse: "false", KwWait: "wait", KwSignal: "signal",
}

// String returns the canonical spelling of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// Lookup maps an identifier spelling to its keyword kind, or Ident.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return Ident
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexeme with its kind and position.
type Token struct {
	Kind Kind
	Lit  string // literal text for Ident/Int/Real/String (decoded)
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Int, Real:
		return t.Lit
	case String:
		return fmt.Sprintf("%q", t.Lit)
	default:
		return t.Kind.String()
	}
}

// Precedence returns the binary operator precedence for the kind, or 0 if the
// kind is not a binary operator. Higher binds tighter.
func (k Kind) Precedence() int {
	switch k {
	case Or:
		return 1
	case And:
		return 2
	case Eq, NotEq, Lt, Le, Gt, Ge:
		return 3
	case Plus, Minus:
		return 4
	case Star, Slash, Percent:
		return 5
	}
	return 0
}
