package ir

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Compact binary encoding of modules. Its purpose in this reproduction is
// twofold: (1) it stands in for "binary size" in the Fig. 11 code-size
// experiment (original vs learning vs final instrumentation), and (2) it lets
// tools persist compiled programs. The format is versioned and round-trips
// exactly (see encode_test.go).
//
// Decode reads bytes from outside the process (a worker decodes every
// leased cell's module), so it accepts only the canonical encoding: every
// varint minimal, every value inside its field's range. Anything it accepts
// re-encodes to exactly the input bytes, which FuzzIRDecode pins.

const encMagic = "ASTROIR1"

// encoder appends to buf; with a writer w, EncodeTo flushes buf to w as
// it fills.
type encoder struct {
	buf []byte
	w   io.Writer
	err error
}

func (e *encoder) u64(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i64(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) f64(v float64) { e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *encoder) str(s string)  { e.u64(uint64(len(s))); e.buf = append(e.buf, s...) }

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("ir: truncated uvarint at offset %d", d.off)
		return 0
	}
	if !d.minimal(n) {
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("ir: truncated varint at offset %d", d.off)
		return 0
	}
	if !d.minimal(n) {
		return 0
	}
	d.off += n
	return v
}

// minimal reports whether the n-byte varint at the current offset is the
// shortest encoding of its value: a multi-byte varint whose last byte is
// zero carries a redundant continuation and would re-encode shorter.
func (d *decoder) minimal(n int) bool {
	if n > 1 && d.buf[d.off+n-1] == 0 {
		d.err = fmt.Errorf("ir: non-minimal varint at offset %d", d.off)
		return false
	}
	return true
}

// u8 reads a uvarint into a one-byte field (Type, Opcode).
func (d *decoder) u8() uint8 {
	off := d.off
	v := d.u64()
	if v > math.MaxUint8 {
		d.err = fmt.Errorf("ir: value %d at offset %d overflows a byte field", v, off)
		return 0
	}
	return uint8(v)
}

// i32 reads a varint into an int32 field (register, block, symbol).
func (d *decoder) i32() int32 {
	off := d.off
	v := d.i64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.err = fmt.Errorf("ir: value %d at offset %d overflows an int32 field", v, off)
		return 0
	}
	return int32(v)
}

// int reads a uvarint into a non-negative int field (count, size, line).
func (d *decoder) int() int {
	off := d.off
	v := d.u64()
	if v > math.MaxInt {
		d.err = fmt.Errorf("ir: value %d at offset %d overflows an int field", v, off)
		return 0
	}
	return int(v)
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = fmt.Errorf("ir: truncated float at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("ir: truncated string at offset %d", d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Encode serializes the module to the compact binary format.
func Encode(m *Module) []byte {
	var e encoder
	e.module(m)
	return e.buf
}

// encChunk is EncodeTo's buffer size. It flushes at half full, checked
// after each instruction, so the buffer grows only for a name or an
// argument list that does not fit in the other half.
const encChunk = 2048

// EncodeTo writes the bytes Encode returns to w through a fixed-size
// buffer, without building the whole encoding in memory.
func EncodeTo(w io.Writer, m *Module) error {
	e := encoder{buf: make([]byte, 0, encChunk), w: w}
	e.module(m)
	e.flush()
	return e.err
}

func (e *encoder) module(m *Module) {
	e.buf = append(e.buf, encMagic...)
	e.str(m.Name)
	e.u64(uint64(m.NumMutex))
	e.u64(uint64(m.NumBarrier))
	e.u64(uint64(len(m.Globals)))
	for _, g := range m.Globals {
		e.str(g.Name)
		e.u64(uint64(g.Size))
		e.u64(uint64(g.Elem))
	}
	e.u64(uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		e.str(f.Name)
		e.u64(uint64(len(f.Params)))
		for _, p := range f.Params {
			e.u64(uint64(p))
		}
		e.u64(uint64(f.Ret))
		e.u64(uint64(len(f.Regs)))
		for _, r := range f.Regs {
			e.u64(uint64(r))
		}
		e.u64(uint64(len(f.Arrays)))
		for _, a := range f.Arrays {
			e.str(a.Name)
			e.u64(uint64(a.Size))
			e.u64(uint64(a.Elem))
		}
		e.u64(uint64(f.SrcLine))
		e.u64(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.u64(uint64(len(b.Instrs)))
			for i := range b.Instrs {
				in := &b.Instrs[i]
				e.u64(uint64(in.Op))
				e.i64(int64(in.Dst))
				e.i64(int64(in.A))
				e.i64(int64(in.B))
				e.i64(int64(in.C))
				e.i64(int64(in.Sym))
				e.i64(in.Imm)
				e.f64(in.FImm)
				e.u64(uint64(len(in.Args)))
				for _, a := range in.Args {
					e.i64(int64(a))
				}
				if e.w != nil && len(e.buf) >= encChunk/2 {
					e.flush()
				}
			}
		}
	}
}

// flush hands the buffered bytes to the writer; after the first write
// error it only discards them.
func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// Decode parses a module previously produced by Encode.
func Decode(data []byte) (*Module, error) {
	if len(data) < len(encMagic) || string(data[:len(encMagic)]) != encMagic {
		return nil, fmt.Errorf("ir: bad magic")
	}
	d := &decoder{buf: data, off: len(encMagic)}
	m := &Module{FuncIndex: map[string]int{}}
	m.Name = d.str()
	m.NumMutex = d.int()
	m.NumBarrier = d.int()
	ng := d.u64()
	for i := uint64(0); i < ng && d.err == nil; i++ {
		g := GlobalDecl{Name: d.str(), Size: int64(d.int()), Elem: Type(d.u8())}
		m.Globals = append(m.Globals, g)
	}
	nf := d.u64()
	for i := uint64(0); i < nf && d.err == nil; i++ {
		f := &Function{}
		f.Name = d.str()
		np := d.u64()
		for j := uint64(0); j < np && d.err == nil; j++ {
			f.Params = append(f.Params, Type(d.u8()))
		}
		f.Ret = Type(d.u8())
		nr := d.u64()
		for j := uint64(0); j < nr && d.err == nil; j++ {
			f.Regs = append(f.Regs, Type(d.u8()))
		}
		na := d.u64()
		for j := uint64(0); j < na && d.err == nil; j++ {
			f.Arrays = append(f.Arrays, ArrayDecl{Name: d.str(), Size: int64(d.int()), Elem: Type(d.u8())})
		}
		f.SrcLine = d.int()
		nb := d.u64()
		for j := uint64(0); j < nb && d.err == nil; j++ {
			b := &Block{ID: int(j)}
			ni := d.u64()
			for k := uint64(0); k < ni && d.err == nil; k++ {
				in := Instr{
					Op:  Opcode(d.u8()),
					Dst: d.i32(),
					A:   d.i32(),
					B:   d.i32(),
					C:   d.i32(),
					Sym: d.i32(),
					Imm: d.i64(),
				}
				in.FImm = d.f64()
				nargs := d.u64()
				for a := uint64(0); a < nargs && d.err == nil; a++ {
					in.Args = append(in.Args, d.i32())
				}
				b.Instrs = append(b.Instrs, in)
			}
			f.Blocks = append(f.Blocks, b)
		}
		m.FuncIndex[f.Name] = len(m.Funcs)
		m.Funcs = append(m.Funcs, f)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("ir: %d trailing bytes", len(data)-d.off)
	}
	return m, nil
}

// EncodedSize returns the size in bytes of the module's binary encoding.
func EncodedSize(m *Module) int { return len(Encode(m)) }
