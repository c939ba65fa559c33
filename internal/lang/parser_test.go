package lang

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, src)
	}
	return f
}

func TestParseFuncAndGlobals(t *testing.T) {
	f := mustParse(t, `
var g int;
var buf [64]float;
mutex m;
mutex cells[16];
barrier gate;

func helper(x int, y float) float {
	return y;
}

func main(scale int, threads int) {
	var z float = helper(g, 1.5);
	z = z + 1.0;
}
`)
	if len(f.Funcs) != 2 || f.Funcs[0].Name != "helper" || f.Funcs[1].Name != "main" {
		t.Fatalf("funcs = %+v", f.Funcs)
	}
	if f.Funcs[0].Ret != TyFloat || len(f.Funcs[0].Params) != 2 {
		t.Errorf("helper signature wrong: %+v", f.Funcs[0])
	}
	if len(f.Globals) != 2 || f.Globals[1].ArraySize != 64 {
		t.Errorf("globals = %+v", f.Globals)
	}
	if len(f.Mutexes) != 2 || f.Mutexes[1].Count != 16 {
		t.Errorf("mutexes = %+v", f.Mutexes)
	}
	if len(f.Barriers) != 1 {
		t.Errorf("barriers = %+v", f.Barriers)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := mustParse(t, `func f() int { return 1 + 2 * 3 == 7 && true || false; }`)
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	or, ok := ret.Value.(*BinaryExpr)
	if !ok || or.Op != BOr {
		t.Fatalf("top is %T, want || binary", ret.Value)
	}
	and, ok := or.X.(*BinaryExpr)
	if !ok || and.Op != BAnd {
		t.Fatalf("or.X is %T/%v, want &&", or.X, and.Op)
	}
	eq, ok := and.X.(*BinaryExpr)
	if !ok || eq.Op != BEq {
		t.Fatalf("and.X wrong")
	}
	add, ok := eq.X.(*BinaryExpr)
	if !ok || add.Op != BAdd {
		t.Fatalf("eq.X wrong")
	}
	mul, ok := add.Y.(*BinaryExpr)
	if !ok || mul.Op != BMul {
		t.Fatalf("add.Y is %T, want *", add.Y)
	}
}

func TestParseControlFlow(t *testing.T) {
	f := mustParse(t, `
func main() {
	var i int;
	for (i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) {
			continue;
		} else if (i > 7) {
			break;
		} else {
			print_int(i);
		}
	}
	while (i > 0) {
		i = i - 1;
	}
}
`)
	body := f.Funcs[0].Body
	forStmt, ok := body.Stmts[1].(*ForStmt)
	if !ok {
		t.Fatalf("stmt 1 is %T", body.Stmts[1])
	}
	if forStmt.Init == nil || forStmt.Cond == nil || forStmt.Post == nil || forStmt.Body == nil {
		t.Fatal("for parts missing")
	}
	ifStmt, ok := forStmt.Body.Stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("for body stmt is %T", forStmt.Body.Stmts[0])
	}
	if ifStmt.Else == nil {
		t.Fatal("else-if chain missing")
	}
	if _, ok := body.Stmts[2].(*WhileStmt); !ok {
		t.Fatalf("stmt 2 is %T", body.Stmts[2])
	}
}

func TestParseSpawn(t *testing.T) {
	f := mustParse(t, `
func worker(id int) { }
func main() {
	spawn worker(0);
	spawn worker(1);
	join();
}
`)
	main := f.Funcs[1].Body
	s0, ok := main.Stmts[0].(*SpawnStmt)
	if !ok || s0.Call.Name != "worker" {
		t.Fatalf("spawn parse: %+v", main.Stmts[0])
	}
	if _, ok := main.Stmts[2].(*ExprStmt); !ok {
		t.Fatalf("join statement is %T", main.Stmts[2])
	}
}

func TestParseIndexAndCast(t *testing.T) {
	f := mustParse(t, `
func main() {
	var a [10]float;
	var i int = 3;
	a[i] = float(i) * 2.0;
	i = int(a[i + 1]);
}
`)
	body := f.Funcs[0].Body
	asn, ok := body.Stmts[2].(*AssignStmt)
	if !ok {
		t.Fatalf("stmt 2 is %T", body.Stmts[2])
	}
	if _, ok := asn.Target.(*IndexExpr); !ok {
		t.Fatalf("target is %T", asn.Target)
	}
	mul := asn.Value.(*BinaryExpr)
	if _, ok := mul.X.(*CastExpr); !ok {
		t.Fatalf("cast missing: %T", mul.X)
	}
}

func TestParseForWithEmptyParts(t *testing.T) {
	mustParse(t, `func main() { var i int; for (;;) { break; } for (; i < 3;) { i = i + 1; } }`)
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"func", "expected identifier"},
		{"func f( { }", "expected"},
		{"func f() { var x int }", "expected"},
		{"func f() { x = ; }", "expected expression"},
		{"var a [0]int;", "positive"},
		{"mutex m[-1];", "expected"},
		{"func f() { spawn 3; }", "spawn requires a function call"},
		{"func f() { if (1) { } else 3 }", "expected"},
		{"3 + 4;", "expected declaration"},
		{"func f() { a[1 = 2; }", "expected"},
		{"func f() { return 1 }", "expected"},
		{"var a [10]int = 3;", "initializers"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q, want containing %q", c.src, err, c.want)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("func f() {\n  var x int\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	var e *Error
	if ok := errorAs(err, &e); !ok {
		t.Fatalf("error is %T", err)
	}
	if e.Line < 2 {
		t.Errorf("error line = %d, want >= 2", e.Line)
	}
}

func errorAs(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

// TestParseLexicalErrorFirst pins the error precedence of lexing the whole
// file before parsing: the first lexical error wins over any syntax error,
// before or after it, and over a file that parses up to it.
func TestParseLexicalErrorFirst(t *testing.T) {
	cases := []struct{ src, want string }{
		{"func f() { x = ; }\n\nvar y @ int;", "line 3:7: unexpected character \"@\""},
		{"func f() { $ = 1; }\nfunc", "line 1:12: unexpected character \"$\""},
		{"func f() { }\n99999999999999999999", "line 2:1: bad int literal"},
		{"func f() { return 1e999; } func", "line 1:19: bad float literal"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %v, want prefix %q", c.src, err, c.want)
		}
	}
}
