package lang

// FuzzCompile mutates astc sources. It checks the pull scanner against the
// whole-file lexer it replaced (lexReference), the error precedence that
// follows from lexing first (a lexical error anywhere beats a syntax
// error), that Parse and Compile never panic and always position their
// diagnostics, and that every module Compile accepts verifies and survives
// an ir.Encode/ir.Decode round trip byte for byte.
//
// The committed corpus under testdata/fuzz/FuzzCompile (the registry's
// sources and one generated program) replays as ordinary subtests in plain
// `go test` runs; CI runs a short `-fuzz` smoke.

import (
	"bytes"
	"reflect"
	"testing"

	"astro/internal/ir"
)

func FuzzCompile(f *testing.F) {
	for _, src := range []string{
		"func main() { var x int = 1 + 2; }",
		"func main() { x = ; } $",              // syntax error, then a lexical one
		"func main() { } 99999999999999999999", // parses, but a bad literal
		"var a [0]int;",
		"func f() int { return 1.5e; }",
		"mutex m[2]; barrier b; func main() { lock(m[1]); }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := lexReference(src)
		got, err := Lex(src)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("Lex error %v, reference %v", err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("Lex error %q, reference %q", err, wantErr)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("Lex tokens differ from the reference:\n got  %s\n want %s", FormatTokens(got), FormatTokens(want))
		}

		file, perr := Parse(src)
		if wantErr != nil && !reflect.DeepEqual(perr, wantErr) {
			t.Fatalf("Parse error %v, want the lexical error %v", perr, wantErr)
		}
		if perr != nil {
			e, ok := perr.(*Error)
			if !ok {
				t.Fatalf("Parse error %T %v is not a *lang.Error", perr, perr)
			}
			if e.Line < 1 || e.Col < 1 {
				t.Fatalf("Parse error %q has no position", e)
			}
		} else if file == nil {
			t.Fatal("Parse returned neither a file nor an error")
		}

		m, cerr := Compile("fuzz", src)
		if perr != nil {
			if cerr == nil || cerr.Error() != perr.Error() {
				t.Fatalf("Compile error %v, Parse error %v", cerr, perr)
			}
			return
		}
		if cerr != nil {
			return
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("accepted module fails ir.Verify: %v", err)
		}
		enc := ir.Encode(m)
		back, err := ir.Decode(enc)
		if err != nil {
			t.Fatalf("ir.Decode refuses ir.Encode's output: %v", err)
		}
		if !bytes.Equal(ir.Encode(back), enc) {
			t.Fatal("ir.Encode(ir.Decode(ir.Encode(m))) differs from ir.Encode(m)")
		}
	})
}
