package lang

import (
	"strconv"
	"strings"
)

// scanner produces astc tokens one at a time, so the parser pulls them as
// it goes instead of lexing the whole file up front. Columns count bytes
// from the start of the line. Comments run from "//" to newline.
type scanner struct {
	src       string
	off       int // offset of the next byte to scan
	line      int
	lineStart int    // offset of the current line's first byte
	err       *Error // first lexical error; sticky
}

func newScanner(src string) scanner { return scanner{src: src, line: 1} }

// scan returns the next token. At the end of the input, and from the
// first lexical error on (kept in s.err), it returns TEOF.
func (s *scanner) scan() Token {
	src, n := s.src, len(s.src)
	i := s.off
	if s.err != nil {
		return Token{Kind: TEOF, Line: s.line, Col: i - s.lineStart + 1}
	}
	for i < n {
		if c := src[i]; c == '\n' {
			i++
			s.line, s.lineStart = s.line+1, i
		} else if c == ' ' || c == '\t' || c == '\r' {
			i++
		} else if c == '/' && i+1 < n && src[i+1] == '/' {
			for i < n && src[i] != '\n' {
				i++
			}
		} else {
			break
		}
	}
	s.off = i
	t := Token{Kind: TEOF, Line: s.line, Col: i - s.lineStart + 1}
	if i == n {
		return t
	}
	start := i
	switch c := src[i]; {
	case isAlpha(c):
		for i < n && (isAlpha(src[i]) || isDigit(src[i])) {
			i++
		}
		t.Text = src[start:i]
		t.Kind = keyword(t.Text)
	case isDigit(c):
		isFloat := false
		i = skipDigits(src, i)
		if i+1 < n && src[i] == '.' && isDigit(src[i+1]) {
			isFloat = true
			i = skipDigits(src, i+1)
		}
		if i < n && (src[i] == 'e' || src[i] == 'E') {
			j := i + 1
			if j < n && (src[j] == '+' || src[j] == '-') {
				j++
			}
			if j < n && isDigit(src[j]) {
				isFloat = true
				i = skipDigits(src, j)
			}
		}
		t.Text = src[start:i]
		var err error
		if isFloat {
			t.Kind = TFloatLit
			if t.F, err = strconv.ParseFloat(t.Text, 64); err != nil {
				return s.fail(t, "bad float literal %q: %v", t.Text, err)
			}
		} else {
			t.Kind = TIntLit
			if t.Int, err = strconv.ParseInt(t.Text, 10, 64); err != nil {
				return s.fail(t, "bad int literal %q: %v", t.Text, err)
			}
		}
	default:
		if t.Kind = punct2(src[i:min(i+2, n)]); t.Kind != TEOF {
			i += 2
		} else if t.Kind = punct1[c]; t.Kind != TEOF {
			i++
		} else {
			return s.fail(t, "unexpected character %q", string(c))
		}
		t.Text = src[start:i]
	}
	s.off = i
	return t
}

// fail records a lexical error at t's position and returns TEOF there.
func (s *scanner) fail(t Token, format string, args ...any) Token {
	s.err = errf(t.Line, t.Col, format, args...)
	return Token{Kind: TEOF, Line: t.Line, Col: t.Col}
}

// drain scans the rest of the input and returns the first lexical error
// in the file, if there is one.
func (s *scanner) drain() *Error {
	for s.err == nil && s.scan().Kind != TEOF {
	}
	return s.err
}

// punct2 returns the kind of a two-byte operator, or TEOF.
func punct2(two string) TokKind {
	switch two {
	case "==":
		return TEq
	case "!=":
		return TNe
	case "<=":
		return TLe
	case ">=":
		return TGe
	case "&&":
		return TAndAnd
	case "||":
		return TOrOr
	}
	return TEOF
}

// punct1 maps each one-byte punctuation or operator to its kind; every
// other byte maps to TEOF.
var punct1 = [256]TokKind{
	'(': TLParen, ')': TRParen, '{': TLBrace, '}': TRBrace, '[': TLBrack, ']': TRBrack,
	',': TComma, ';': TSemi, '=': TAssign, '<': TLt, '>': TGt,
	'+': TPlus, '-': TMinus, '*': TStar, '/': TSlash, '%': TPercent, '!': TBang,
}

// Lex tokenizes a whole astc source string. The parser pulls tokens from
// the scanner directly; Lex serves tests and FormatTokens.
func Lex(src string) ([]Token, error) {
	s := newScanner(src)
	var toks []Token
	for {
		t := s.scan()
		if s.err != nil {
			return nil, s.err
		}
		toks = append(toks, t)
		if t.Kind == TEOF {
			return toks, nil
		}
	}
}

func isAlpha(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipDigits returns the offset of the first non-digit at or after i.
func skipDigits(src string, i int) int {
	for i < len(src) && isDigit(src[i]) {
		i++
	}
	return i
}

// FormatTokens renders a token stream, used in tests and debugging.
func FormatTokens(toks []Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if t.Kind == TIdent || t.Kind == TIntLit || t.Kind == TFloatLit {
			sb.WriteString(t.Text)
		} else {
			sb.WriteString(t.Kind.String())
		}
	}
	return sb.String()
}
