package lang

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// referenceKeywords is the keyword table lexReference looks words up in.
var referenceKeywords = map[string]TokKind{
	"func": TFunc, "var": TVar, "if": TIf, "else": TElse, "while": TWhile,
	"for": TFor, "return": TReturn, "break": TBreak, "continue": TContinue,
	"spawn": TSpawn, "mutex": TMutex, "barrier": TBarrier,
	"true": TTrue, "false": TFalse,
	"int": TKwInt, "float": TKwFloat, "bool": TKwBool,
}

// lexReference is the whole-file lexer the pull scanner replaced, kept
// as the oracle FuzzCompile checks Lex and Parse's error precedence
// against: it must give the same tokens, or the same first error.
func lexReference(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	n := len(src)
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case isAlpha(c):
			start, l0, c0 := i, line, col
			for i < n && (isAlpha(src[i]) || isDigit(src[i])) {
				advance(1)
			}
			word := src[start:i]
			if k, ok := referenceKeywords[word]; ok {
				toks = append(toks, Token{Kind: k, Text: word, Line: l0, Col: c0})
			} else {
				toks = append(toks, Token{Kind: TIdent, Text: word, Line: l0, Col: c0})
			}
		case isDigit(c):
			start, l0, c0 := i, line, col
			isFloat := false
			for i < n && isDigit(src[i]) {
				advance(1)
			}
			if i < n && src[i] == '.' && i+1 < n && isDigit(src[i+1]) {
				isFloat = true
				advance(1)
				for i < n && isDigit(src[i]) {
					advance(1)
				}
			}
			if i < n && (src[i] == 'e' || src[i] == 'E') {
				j := i + 1
				if j < n && (src[j] == '+' || src[j] == '-') {
					j++
				}
				if j < n && isDigit(src[j]) {
					isFloat = true
					advance(j - i)
					for i < n && isDigit(src[i]) {
						advance(1)
					}
				}
			}
			text := src[start:i]
			if isFloat {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, errf(l0, c0, "bad float literal %q: %v", text, err)
				}
				toks = append(toks, Token{Kind: TFloatLit, Text: text, F: f, Line: l0, Col: c0})
			} else {
				v, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, errf(l0, c0, "bad int literal %q: %v", text, err)
				}
				toks = append(toks, Token{Kind: TIntLit, Text: text, Int: v, Line: l0, Col: c0})
			}
		default:
			l0, c0 := line, col
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			var k TokKind
			var txt string
			switch two {
			case "==":
				k, txt = TEq, two
			case "!=":
				k, txt = TNe, two
			case "<=":
				k, txt = TLe, two
			case ">=":
				k, txt = TGe, two
			case "&&":
				k, txt = TAndAnd, two
			case "||":
				k, txt = TOrOr, two
			}
			if txt != "" {
				advance(2)
				toks = append(toks, Token{Kind: k, Text: txt, Line: l0, Col: c0})
				continue
			}
			switch c {
			case '(':
				k = TLParen
			case ')':
				k = TRParen
			case '{':
				k = TLBrace
			case '}':
				k = TRBrace
			case '[':
				k = TLBrack
			case ']':
				k = TRBrack
			case ',':
				k = TComma
			case ';':
				k = TSemi
			case '=':
				k = TAssign
			case '<':
				k = TLt
			case '>':
				k = TGt
			case '+':
				k = TPlus
			case '-':
				k = TMinus
			case '*':
				k = TStar
			case '/':
				k = TSlash
			case '%':
				k = TPercent
			case '!':
				k = TBang
			default:
				return nil, errf(l0, c0, "unexpected character %q", string(c))
			}
			advance(1)
			toks = append(toks, Token{Kind: k, Text: string(c), Line: l0, Col: c0})
		}
	}
	toks = append(toks, Token{Kind: TEOF, Line: line, Col: col})
	return toks, nil
}

func lexKinds(t *testing.T, src string) []TokKind {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	kinds := make([]TokKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	return kinds
}

func TestLexBasics(t *testing.T) {
	kinds := lexKinds(t, "func main() { var x int = 1 + 2; }")
	want := []TokKind{TFunc, TIdent, TLParen, TRParen, TLBrace, TVar, TIdent, TKwInt,
		TAssign, TIntLit, TPlus, TIntLit, TSemi, TRBrace, TEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	kinds := lexKinds(t, "== != <= >= < > && || ! = + - * / %")
	want := []TokKind{TEq, TNe, TLe, TGe, TLt, TGt, TAndAnd, TOrOr, TBang, TAssign,
		TPlus, TMinus, TStar, TSlash, TPercent, TEOF}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("42 3.5 1e3 2.5e-2 7")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TIntLit || toks[0].Int != 42 {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != TFloatLit || toks[1].F != 3.5 {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Kind != TFloatLit || toks[2].F != 1000 {
		t.Errorf("tok2 = %+v", toks[2])
	}
	if toks[3].Kind != TFloatLit || toks[3].F != 0.025 {
		t.Errorf("tok3 = %+v", toks[3])
	}
	if toks[4].Kind != TIntLit || toks[4].Int != 7 {
		t.Errorf("tok4 = %+v", toks[4])
	}
}

func TestLexComments(t *testing.T) {
	kinds := lexKinds(t, "x // a comment with = and func\ny")
	want := []TokKind{TIdent, TIdent, TEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b\n\tc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d", toks[1].Line, toks[1].Col)
	}
	if toks[2].Line != 3 || toks[2].Col != 2 {
		t.Errorf("c at %d:%d", toks[2].Line, toks[2].Col)
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := Lex("iff format whiles for2 spawn")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if toks[i].Kind != TIdent {
			t.Errorf("token %d (%q) lexed as %v, want identifier", i, toks[i].Text, toks[i].Kind)
		}
	}
	if toks[4].Kind != TSpawn {
		t.Errorf("spawn lexed as %v", toks[4].Kind)
	}
}

func TestLexRejectsBadChars(t *testing.T) {
	for _, src := range []string{"a $ b", "x @", "\"string\"", "a & b", "a | b"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) accepted", src)
		}
	}
}

// Property: lexing never panics and always terminates with EOF for arbitrary
// printable input that contains no illegal characters.
func TestLexQuickNoPanics(t *testing.T) {
	alphabet := "abc123.,;(){}[]=<>!&|+-*/% \n\tfuncvarwhile"
	f := func(idx []uint8) bool {
		var sb strings.Builder
		for _, i := range idx {
			sb.WriteByte(alphabet[int(i)%len(alphabet)])
		}
		toks, err := Lex(sb.String())
		if err != nil {
			return true // rejected inputs are fine
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatTokens(t *testing.T) {
	toks, err := Lex("x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	got := FormatTokens(toks)
	if !strings.Contains(got, "x") || !strings.Contains(got, "1") {
		t.Errorf("FormatTokens = %q", got)
	}
}

func TestKeywordTable(t *testing.T) {
	for word, k := range referenceKeywords {
		if got := keyword(word); got != k {
			t.Errorf("keyword(%q) = %v, want %v", word, got, k)
		}
		if got := keyword(word + "x"); got != TIdent {
			t.Errorf("keyword(%q) = %v, want identifier", word+"x", got)
		}
	}
	if n := int(TKwBool-TFunc) + 1; len(referenceKeywords) != n {
		t.Errorf("%d keywords, %d keyword kinds", len(referenceKeywords), n)
	}
}
