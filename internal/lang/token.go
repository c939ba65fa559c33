// Package lang implements the front end for astc, the small C-like language
// used to author the benchmark programs in this reproduction. It stands in
// for the paper's Clang/LLVM front end: astc sources are lexed, parsed,
// type-checked and lowered to the internal/ir register IR that the
// Phase-Extractor mines and the simulator executes.
//
// The language has int/float/bool scalars, fixed-size 1-D arrays, global
// variables, mutexes and barriers, functions, if/while/for control flow,
// spawn for thread creation, and a library of builtins (I/O, net, sleep,
// locks, barriers, math) whose traits drive phase classification.
package lang

import "fmt"

// TokKind enumerates token kinds.
type TokKind uint8

const (
	TEOF TokKind = iota
	TIdent
	TIntLit
	TFloatLit

	// Keywords.
	TFunc
	TVar
	TIf
	TElse
	TWhile
	TFor
	TReturn
	TBreak
	TContinue
	TSpawn
	TMutex
	TBarrier
	TTrue
	TFalse
	TKwInt
	TKwFloat
	TKwBool

	// Punctuation and operators.
	TLParen
	TRParen
	TLBrace
	TRBrace
	TLBrack
	TRBrack
	TComma
	TSemi
	TAssign
	TEq
	TNe
	TLt
	TLe
	TGt
	TGe
	TPlus
	TMinus
	TStar
	TSlash
	TPercent
	TAndAnd
	TOrOr
	TBang
)

var kindNames = map[TokKind]string{
	TEOF: "EOF", TIdent: "identifier", TIntLit: "int literal", TFloatLit: "float literal",
	TFunc: "func", TVar: "var", TIf: "if", TElse: "else", TWhile: "while", TFor: "for",
	TReturn: "return", TBreak: "break", TContinue: "continue", TSpawn: "spawn",
	TMutex: "mutex", TBarrier: "barrier", TTrue: "true", TFalse: "false",
	TKwInt: "int", TKwFloat: "float", TKwBool: "bool",
	TLParen: "(", TRParen: ")", TLBrace: "{", TRBrace: "}", TLBrack: "[", TRBrack: "]",
	TComma: ",", TSemi: ";", TAssign: "=", TEq: "==", TNe: "!=",
	TLt: "<", TLe: "<=", TGt: ">", TGe: ">=",
	TPlus: "+", TMinus: "-", TStar: "*", TSlash: "/", TPercent: "%",
	TAndAnd: "&&", TOrOr: "||", TBang: "!",
}

func (k TokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

// keyword returns the kind of a word: a keyword's own kind, or TIdent.
func keyword(word string) TokKind {
	switch word {
	case "func":
		return TFunc
	case "var":
		return TVar
	case "if":
		return TIf
	case "else":
		return TElse
	case "while":
		return TWhile
	case "for":
		return TFor
	case "return":
		return TReturn
	case "break":
		return TBreak
	case "continue":
		return TContinue
	case "spawn":
		return TSpawn
	case "mutex":
		return TMutex
	case "barrier":
		return TBarrier
	case "true":
		return TTrue
	case "false":
		return TFalse
	case "int":
		return TKwInt
	case "float":
		return TKwFloat
	case "bool":
		return TKwBool
	}
	return TIdent
}

// Token is a lexed token with source position.
type Token struct {
	Kind TokKind
	Text string
	Int  int64
	F    float64
	Line int
	Col  int
}

// Error is a front-end diagnostic with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
