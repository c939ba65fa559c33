package lang

import "fmt"

// Parse parses an astc source file. The parser pulls tokens from a scanner
// with one token of lookahead. A lexical error anywhere in the file
// outranks a syntax error, as if the whole file were lexed first: after a
// syntax error the parser drains the scanner and reports the first
// lexical error if there is one.
func Parse(src string) (*File, error) {
	p := &parser{s: newScanner(src)}
	p.tok = p.s.scan()
	f, err := p.file()
	if lexErr := p.s.drain(); lexErr != nil {
		return nil, lexErr
	}
	return f, err
}

type parser struct {
	s        scanner
	tok      Token // current token
	ahead    Token // the token after tok, once peek has scanned it
	hasAhead bool
}

func (p *parser) cur() Token { return p.tok }

func (p *parser) peek() Token {
	if !p.hasAhead {
		p.ahead, p.hasAhead = p.s.scan(), true
	}
	return p.ahead
}

// next consumes the current token and returns it; at TEOF it stays put.
func (p *parser) next() Token {
	t := p.tok
	if t.Kind != TEOF {
		p.tok = p.peek()
		p.hasAhead = false
	}
	return t
}

func (p *parser) accept(k TokKind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Line, t.Col, "expected %s, found %s", k, describe(t))
	}
	p.next()
	return t, nil
}

func describe(t Token) string {
	switch t.Kind {
	case TIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case TIntLit, TFloatLit:
		return fmt.Sprintf("literal %s", t.Text)
	case TEOF:
		return "end of file"
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}

func (p *parser) file() (*File, error) {
	f := &File{}
	for p.cur().Kind != TEOF {
		switch p.cur().Kind {
		case TFunc:
			fd, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fd)
		case TVar:
			vd, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, vd)
		case TMutex:
			t := p.next()
			name, err := p.expect(TIdent)
			if err != nil {
				return nil, err
			}
			count := int64(1)
			if p.accept(TLBrack) {
				szTok, err := p.expect(TIntLit)
				if err != nil {
					return nil, err
				}
				count = szTok.Int
				if count <= 0 {
					return nil, errf(szTok.Line, szTok.Col, "mutex array size must be positive")
				}
				if _, err := p.expect(TRBrack); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(TSemi); err != nil {
				return nil, err
			}
			f.Mutexes = append(f.Mutexes, &MutexDecl{Name: name.Text, Count: count, Line: t.Line})
		case TBarrier:
			t := p.next()
			name, err := p.expect(TIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TSemi); err != nil {
				return nil, err
			}
			f.Barriers = append(f.Barriers, &BarrierDecl{Name: name.Text, Line: t.Line})
		default:
			t := p.cur()
			return nil, errf(t.Line, t.Col, "expected declaration, found %s", describe(t))
		}
	}
	return f, nil
}

func (p *parser) typeName() (TypeName, error) {
	t := p.cur()
	switch t.Kind {
	case TKwInt:
		p.next()
		return TyInt, nil
	case TKwFloat:
		p.next()
		return TyFloat, nil
	case TKwBool:
		p.next()
		return TyBool, nil
	}
	return TyVoid, errf(t.Line, t.Col, "expected type, found %s", describe(t))
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	t, _ := p.expect(TFunc)
	name, err := p.expect(TIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TLParen); err != nil {
		return nil, err
	}
	var params []Param
	for p.cur().Kind != TRParen {
		if len(params) > 0 {
			if _, err := p.expect(TComma); err != nil {
				return nil, err
			}
		}
		pn, err := p.expect(TIdent)
		if err != nil {
			return nil, err
		}
		pt, err := p.typeName()
		if err != nil {
			return nil, err
		}
		params = append(params, Param{Name: pn.Text, Type: pt})
	}
	p.next() // consume )
	ret := TyVoid
	if k := p.cur().Kind; k == TKwInt || k == TKwFloat || k == TKwBool {
		ret, _ = p.typeName()
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name.Text, Params: params, Ret: ret, Body: body, Line: t.Line}, nil
}

// varDecl parses "var name type [= expr];" or "var name [N]type;".
func (p *parser) varDecl() (*VarDecl, error) {
	t, _ := p.expect(TVar)
	name, err := p.expect(TIdent)
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Name: name.Text, ArraySize: -1, Line: t.Line}
	if p.accept(TLBrack) {
		szTok, err := p.expect(TIntLit)
		if err != nil {
			return nil, err
		}
		if szTok.Int <= 0 {
			return nil, errf(szTok.Line, szTok.Col, "array size must be positive")
		}
		d.ArraySize = szTok.Int
		if _, err := p.expect(TRBrack); err != nil {
			return nil, err
		}
	}
	d.Type, err = p.typeName()
	if err != nil {
		return nil, err
	}
	if p.accept(TAssign) {
		if d.ArraySize >= 0 {
			return nil, errf(t.Line, t.Col, "array variables cannot have initializers")
		}
		d.Init, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) block() (*BlockStmt, error) {
	t, err := p.expect(TLBrace)
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{Line: t.Line}
	for p.cur().Kind != TRBrace {
		if p.cur().Kind == TEOF {
			return nil, errf(t.Line, t.Col, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // consume }
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case TLBrace:
		return p.block()
	case TVar:
		d, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		return &VarStmt{Decl: d}, nil
	case TIf:
		p.next()
		if _, err := p.expect(TLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TRParen); err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		var els *BlockStmt
		if p.accept(TElse) {
			if p.cur().Kind == TIf {
				// else-if: wrap in a block
				s, err := p.stmt()
				if err != nil {
					return nil, err
				}
				els = &BlockStmt{Stmts: []Stmt{s}, Line: t.Line}
			} else {
				els, err = p.block()
				if err != nil {
					return nil, err
				}
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Line: t.Line}, nil
	case TWhile:
		p.next()
		if _, err := p.expect(TLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TRParen); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.Line}, nil
	case TFor:
		p.next()
		if _, err := p.expect(TLParen); err != nil {
			return nil, err
		}
		f := &ForStmt{Line: t.Line}
		if p.cur().Kind != TSemi {
			a, err := p.simpleAssign()
			if err != nil {
				return nil, err
			}
			f.Init = a
		}
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		if p.cur().Kind != TSemi {
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.Cond = cond
		}
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		if p.cur().Kind != TRParen {
			a, err := p.simpleAssign()
			if err != nil {
				return nil, err
			}
			f.Post = a
		}
		if _, err := p.expect(TRParen); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		f.Body = body
		return f, nil
	case TReturn:
		p.next()
		r := &ReturnStmt{Line: t.Line}
		if p.cur().Kind != TSemi {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.Value = v
		}
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return r, nil
	case TBreak:
		p.next()
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.Line}, nil
	case TContinue:
		p.next()
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.Line}, nil
	case TSpawn:
		p.next()
		e, err := p.postfix()
		if err != nil {
			return nil, err
		}
		call, ok := e.(*CallExpr)
		if !ok {
			return nil, errf(t.Line, t.Col, "spawn requires a function call")
		}
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return &SpawnStmt{Call: call, Line: t.Line}, nil
	case TIdent:
		// Either an assignment or a call statement.
		if p.peek().Kind == TAssign || p.peek().Kind == TLBrack {
			a, err := p.simpleAssign()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TSemi); err != nil {
				return nil, err
			}
			return a, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return &ExprStmt{X: e, Line: t.Line}, nil
	default:
		return nil, errf(t.Line, t.Col, "expected statement, found %s", describe(t))
	}
}

// simpleAssign parses "target = expr" without the trailing semicolon.
// Target is ident or ident[expr]. Note ident[expr] can also start an
// assignment like "a[i] = v" — we disambiguate by requiring '=' after the
// target.
func (p *parser) simpleAssign() (*AssignStmt, error) {
	t, err := p.expect(TIdent)
	if err != nil {
		return nil, err
	}
	var target Expr = &Ident{Name: t.Text, Line: t.Line, Col: t.Col}
	if p.accept(TLBrack) {
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TRBrack); err != nil {
			return nil, err
		}
		target = &IndexExpr{Name: t.Text, Index: idx, Line: t.Line, Col: t.Col}
	}
	if _, err := p.expect(TAssign); err != nil {
		return nil, err
	}
	v, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Target: target, Value: v, Line: t.Line}, nil
}

// Expression parsing by precedence climbing.

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	x, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TOrOr {
		t := p.next()
		y, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: BOr, X: x, Y: y, Line: t.Line, Col: t.Col}
	}
	return x, nil
}

func (p *parser) andExpr() (Expr, error) {
	x, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TAndAnd {
		t := p.next()
		y, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: BAnd, X: x, Y: y, Line: t.Line, Col: t.Col}
	}
	return x, nil
}

var cmpOps = map[TokKind]BinOp{
	TEq: BEq, TNe: BNe, TLt: BLt, TLe: BLe, TGt: BGt, TGe: BGe,
}

func (p *parser) cmpExpr() (Expr, error) {
	x, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := cmpOps[p.cur().Kind]
		if !ok {
			return x, nil
		}
		t := p.next()
		y, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op, X: x, Y: y, Line: t.Line, Col: t.Col}
	}
}

func (p *parser) addExpr() (Expr, error) {
	x, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TPlus:
			op = BAdd
		case TMinus:
			op = BSub
		default:
			return x, nil
		}
		t := p.next()
		y, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op, X: x, Y: y, Line: t.Line, Col: t.Col}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TStar:
			op = BMul
		case TSlash:
			op = BDiv
		case TPercent:
			op = BRem
		default:
			return x, nil
		}
		t := p.next()
		y, err := p.unary()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op, X: x, Y: y, Line: t.Line, Col: t.Col}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TMinus:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: UNeg, X: x, Line: t.Line, Col: t.Col}, nil
	case TBang:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: UNot, X: x, Line: t.Line, Col: t.Col}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TIntLit:
		p.next()
		return &IntLit{Value: t.Int, Line: t.Line, Col: t.Col}, nil
	case TFloatLit:
		p.next()
		return &FloatLit{Value: t.F, Line: t.Line, Col: t.Col}, nil
	case TTrue:
		p.next()
		return &BoolLit{Value: true, Line: t.Line, Col: t.Col}, nil
	case TFalse:
		p.next()
		return &BoolLit{Value: false, Line: t.Line, Col: t.Col}, nil
	case TLParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TRParen); err != nil {
			return nil, err
		}
		return x, nil
	case TKwInt, TKwFloat:
		// Cast: int(expr) / float(expr).
		to := TyInt
		if t.Kind == TKwFloat {
			to = TyFloat
		}
		p.next()
		if _, err := p.expect(TLParen); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TRParen); err != nil {
			return nil, err
		}
		return &CastExpr{To: to, X: x, Line: t.Line, Col: t.Col}, nil
	case TIdent:
		p.next()
		switch p.cur().Kind {
		case TLParen:
			p.next()
			var args []Expr
			for p.cur().Kind != TRParen {
				if len(args) > 0 {
					if _, err := p.expect(TComma); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			p.next()
			return &CallExpr{Name: t.Text, Args: args, Line: t.Line, Col: t.Col}, nil
		case TLBrack:
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TRBrack); err != nil {
				return nil, err
			}
			return &IndexExpr{Name: t.Text, Index: idx, Line: t.Line, Col: t.Col}, nil
		}
		return &Ident{Name: t.Text, Line: t.Line, Col: t.Col}, nil
	default:
		return nil, errf(t.Line, t.Col, "expected expression, found %s", describe(t))
	}
}
