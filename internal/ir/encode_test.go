package ir

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func randomModule(rng *rand.Rand) *Module {
	m := NewModule("rand")
	m.NumMutex = rng.Intn(4)
	m.NumBarrier = rng.Intn(4)
	for g := 0; g < rng.Intn(3); g++ {
		m.Globals = append(m.Globals, GlobalDecl{
			Name: "g" + string(rune('a'+g)),
			Size: int64(1 + rng.Intn(64)),
			Elem: Type(1 + rng.Intn(2)),
		})
	}
	nf := 1 + rng.Intn(3)
	for f := 0; f < nf; f++ {
		var params []Type
		for p := 0; p < rng.Intn(3); p++ {
			params = append(params, Type(1+rng.Intn(2)))
		}
		b := NewBuilder(m, "f"+string(rune('a'+f)), params, TVoid)
		if rng.Intn(2) == 0 {
			b.NewArray("arr", int64(1+rng.Intn(32)), TFloat)
		}
		n := rng.Intn(10)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				b.ConstI(rng.Int63() - rng.Int63())
			case 1:
				b.ConstF(rng.NormFloat64())
			case 2:
				x := b.ConstI(int64(rng.Intn(100)))
				y := b.ConstI(int64(rng.Intn(100)))
				b.Bin(OpAdd, TInt, x, y)
			case 3:
				b.CallB(BTid)
			}
		}
		b.Ret(NoReg)
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m := randomModule(rng)
		if err := Verify(m); err != nil {
			t.Fatalf("random module invalid: %v", err)
		}
		data := Encode(m)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !modulesEqual(m, got) {
			t.Fatalf("round trip mismatch:\n--- want\n%s\n--- got\n%s", Disassemble(m), Disassemble(got))
		}
	}
}

func modulesEqual(a, b *Module) bool {
	if a.Name != b.Name || a.NumMutex != b.NumMutex || a.NumBarrier != b.NumBarrier {
		return false
	}
	if !reflect.DeepEqual(a.Globals, b.Globals) && !(len(a.Globals) == 0 && len(b.Globals) == 0) {
		return false
	}
	if len(a.Funcs) != len(b.Funcs) {
		return false
	}
	for i := range a.Funcs {
		fa, fb := a.Funcs[i], b.Funcs[i]
		if fa.Name != fb.Name || fa.Ret != fb.Ret || fa.SrcLine != fb.SrcLine {
			return false
		}
		if !typesEqual(fa.Params, fb.Params) || !typesEqual(fa.Regs, fb.Regs) {
			return false
		}
		if !reflect.DeepEqual(fa.Arrays, fb.Arrays) && !(len(fa.Arrays) == 0 && len(fb.Arrays) == 0) {
			return false
		}
		if len(fa.Blocks) != len(fb.Blocks) {
			return false
		}
		for j := range fa.Blocks {
			ba, bb := fa.Blocks[j], fb.Blocks[j]
			if len(ba.Instrs) != len(bb.Instrs) {
				return false
			}
			for k := range ba.Instrs {
				ia, ib := ba.Instrs[k], bb.Instrs[k]
				if ia.Op != ib.Op || ia.Dst != ib.Dst || ia.A != ib.A || ia.B != ib.B ||
					ia.C != ib.C || ia.Sym != ib.Sym || ia.Imm != ib.Imm || ia.FImm != ib.FImm {
					return false
				}
				if len(ia.Args) != len(ib.Args) {
					return false
				}
				for x := range ia.Args {
					if ia.Args[x] != ib.Args[x] {
						return false
					}
				}
			}
		}
	}
	return true
}

func typesEqual(a, b []Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := NewModule("x")
	b := NewBuilder(m, "main", nil, TVoid)
	b.Ret(NoReg)
	data := Encode(m)

	if _, err := Decode(data[:4]); err == nil {
		t.Error("short data accepted")
	}
	bad := append([]byte("WRONGMAG"), data[8:]...)
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	trailing := append(append([]byte(nil), data...), 0xff)
	if _, err := Decode(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
	truncated := data[:len(data)-1]
	if _, err := Decode(truncated); err == nil {
		t.Error("truncated data accepted")
	}
}

// TestDecodeRejectsNonCanonical feeds Decode inputs that are hostile or
// merely non-canonical: each must fail with an error, never a panic, and
// never decode to a module that re-encodes to different bytes.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	// Both overflow inputs are complete encodings, so only the range check
	// can refuse them. dstOverflow is an unnamed module with one function
	// holding one block of one nop whose Dst is 2^31.
	dstOverflow := &encoder{buf: []byte(encMagic)}
	dstOverflow.str("")  // module name
	dstOverflow.u64(0)   // mutexes
	dstOverflow.u64(0)   // barriers
	dstOverflow.u64(0)   // globals
	dstOverflow.u64(1)   // functions
	dstOverflow.str("f") // function name
	dstOverflow.u64(0)   // params
	dstOverflow.u64(0)   // return type
	dstOverflow.u64(0)   // registers
	dstOverflow.u64(0)   // arrays
	dstOverflow.u64(0)   // source line
	dstOverflow.u64(1)   // blocks
	dstOverflow.u64(1)   // instructions
	dstOverflow.u64(0)   // opcode
	dstOverflow.i64(1 << 31)
	for range 5 { // A, B, C, Sym, Imm
		dstOverflow.i64(0)
	}
	dstOverflow.f64(0)
	dstOverflow.u64(0) // args
	// elemOverflow has one global whose one-byte Elem is 256, and no
	// functions.
	elemOverflow := &encoder{buf: []byte(encMagic)}
	elemOverflow.str("")
	elemOverflow.u64(0)
	elemOverflow.u64(0)
	elemOverflow.u64(1)
	elemOverflow.str("g")
	elemOverflow.u64(1)
	elemOverflow.u64(256)
	elemOverflow.u64(0)
	cases := map[string][]byte{
		// A string length of 2^64-1 used to overflow the bounds check.
		"huge-string-length": append([]byte(encMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		// NumMutex 22 written as the two-byte varint 96 00.
		"non-minimal-varint": mustHex(t, "415354524f49523101309600300000"),
		"int32-overflow":     dstOverflow.buf,
		"byte-overflow":      elemOverflow.buf,
	}
	for name, data := range cases {
		if m, err := Decode(data); err == nil {
			t.Errorf("%s: accepted, re-encodes as %x", name, Encode(m))
		}
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEncodedSizeGrowsWithInstrumentation(t *testing.T) {
	m := NewModule("x")
	b := NewBuilder(m, "main", nil, TVoid)
	for i := 0; i < 20; i++ {
		b.ConstI(int64(i))
	}
	b.Ret(NoReg)
	before := EncodedSize(m)
	// Simulate instrumentation: add logphase ops.
	blk := m.Funcs[0].Blocks[0]
	extra := []Instr{{Op: OpLogPhase, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Sym: -1, Imm: 2}}
	blk.Instrs = append(extra, blk.Instrs...)
	after := EncodedSize(m)
	if after <= before {
		t.Errorf("instrumented size %d <= original %d", after, before)
	}
}

type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestEncodeToMatchesEncode pins EncodeTo to Encode's bytes, across flushes
// of its fixed buffer and with a name longer than the buffer.
func TestEncodeToMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mods := []*Module{NewModule("")}
	for trial := 0; trial < 50; trial++ {
		mods = append(mods, randomModule(rng))
	}
	big := randomModule(rng)
	big.Name = strings.Repeat("n", 3*encChunk)
	b := NewBuilder(big, strings.Repeat("f", encChunk+1), nil, TVoid)
	for i := 0; i < 10*encChunk; i++ {
		b.ConstF(rng.NormFloat64())
	}
	b.Ret(NoReg)
	mods = append(mods, big)
	for i, m := range mods {
		var buf bytes.Buffer
		if err := EncodeTo(&buf, m); err != nil {
			t.Fatal(err)
		}
		if want := Encode(m); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("module %d: EncodeTo wrote %d bytes, Encode returns %d", i, buf.Len(), len(want))
		}
	}
	if err := EncodeTo(&failingWriter{n: 2}, big); err == nil || err.Error() != "disk full" {
		t.Fatalf("EncodeTo over a failing writer: err = %v", err)
	}
}
