package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/powmon"
)

// Canonical result serialization. The campaign engine keys simulations by
// the content hash of their inputs and stores results by value; the bytes
// produced here are the stored value, and this file is the one definition
// of their format. The layout is the one encoding/json gives a Result:
// struct fields in declaration order, no whitespace, null for a nil slice
// or pointer, [] for an empty slice, and encoding/json's float format. It
// is written out by hand because a warm campaign cell is little more than
// a store read and a decode, and reflection was most of that.
//
// DecodeResult accepts only that layout: exact keys in order, no
// whitespace, and numbers and strings in the form EncodeResult writes
// them. Every value it accepts therefore re-encodes to the bytes it came
// from (DESIGN.md invariants 5 and 6). codec_test.go pins EncodeResult
// byte for byte against encoding/json over randomly filled Results, so a
// field added to the schema without a codec update fails a test.

// EncodeResult serializes a result to its canonical byte form. NaN and
// infinite floats have no JSON form and are refused.
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, errors.New("sim: cannot encode nil result")
	}
	n := 256 + 384*len(r.Checkpoints)
	if r.Samples != nil {
		n += 48 * len(r.Samples.Samples)
	}
	for _, s := range r.Output {
		n += len(s) + 8
	}
	e := encoder{b: make([]byte, 0, n)}
	e.float(`{"TimeS":`, r.TimeS)
	e.float(`,"EnergyJ":`, r.EnergyJ)
	e.uint(`,"Instructions":`, r.Instructions)
	e.list(`,"Checkpoints":`, r.Checkpoints == nil, len(r.Checkpoints), func(i int) {
		e.checkpoint(&r.Checkpoints[i])
	})
	if s := r.Samples; s == nil {
		e.raw(`,"Samples":null`)
	} else {
		e.float(`,"Samples":{"IntervalS":`, s.IntervalS)
		e.list(`,"Samples":`, s.Samples == nil, len(s.Samples), func(i int) {
			e.float(`{"TimeS":`, s.Samples[i].TimeS)
			e.float(`,"Watts":`, s.Samples[i].Watts)
			e.raw("}")
		})
		e.raw("}")
	}
	e.list(`,"Output":`, r.Output == nil, len(r.Output), func(i int) {
		// encoding/json's string escaping (HTML characters, U+2028/
		// U+2029, invalid UTF-8) is kept exactly by using it.
		q, _ := json.Marshal(r.Output[i])
		e.b = append(e.b, q...)
	})
	e.bool(`,"OutputTrunc":`, r.OutputTrunc)
	e.int(`,"Switches":`, r.Switches)
	e.int(`,"Migrations":`, r.Migrations)
	e.config(`,"FinalConfig":`, r.FinalConfig)
	e.raw("}")
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// encoder appends a Result's canonical bytes; the first unencodable value
// sticks in err.
type encoder struct {
	b   []byte
	err error
}

// raw appends s; each value writer appends the key (and any punctuation)
// before its value.
func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) bool(key string, v bool)   { e.b = strconv.AppendBool(append(e.b, key...), v) }
func (e *encoder) int(key string, v int)     { e.b = strconv.AppendInt(append(e.b, key...), int64(v), 10) }
func (e *encoder) uint(key string, v uint64) { e.b = strconv.AppendUint(append(e.b, key...), v, 10) }

func (e *encoder) float(key string, f float64) {
	e.raw(key)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("sim: encode result: unsupported value %v", f)
		}
		return
	}
	e.b = appendFloat(e.b, f)
}

// list appends key and then null, or a list of n elements written by each.
func (e *encoder) list(key string, isNil bool, n int, each func(i int)) {
	e.raw(key)
	if isNil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			e.raw(",")
		}
		each(i)
	}
	e.raw("]")
}

func (e *encoder) config(key string, c hw.Config) {
	e.raw(key)
	e.int(`{"Little":`, c.Little)
	e.int(`,"Big":`, c.Big)
	e.raw("}")
}

func (e *encoder) checkpoint(ck *Checkpoint) {
	e.int(`{"Index":`, ck.Index)
	e.float(`,"TimeS":`, ck.TimeS)
	e.float(`,"DurS":`, ck.DurS)
	e.config(`,"Config":`, ck.Config)
	e.uint(`,"ProgPhase":`, uint64(ck.ProgPhase))
	e.uint(`,"HW":{"Instructions":`, ck.HW.Instructions)
	e.uint(`,"Cycles":`, ck.HW.Cycles)
	e.uint(`,"CacheAccesses":`, ck.HW.CacheAccesses)
	e.uint(`,"CacheMisses":`, ck.HW.CacheMisses)
	e.float(`,"BusySeconds":`, ck.HW.BusySeconds)
	e.float(`,"WindowSeconds":`, ck.HW.WindowSeconds)
	e.int(`},"HWPhase":{"IPCBucket":`, ck.HWPhase.IPCBucket)
	e.int(`,"CMABucket":`, ck.HWPhase.CMABucket)
	e.int(`,"CMIBucket":`, ck.HWPhase.CMIBucket)
	e.int(`,"CPUBucket":`, ck.HWPhase.CPUBucket)
	e.float(`},"EnergyJ":`, ck.EnergyJ)
	e.raw("}")
}

// appendFloat formats a finite f as encoding/json does: the shortest
// representation that round-trips, in 'f' form, or in 'e' form when
// |f| < 1e-6 or |f| >= 1e21, with a two-digit negative exponent trimmed
// (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// DecodeResult parses a result in the canonical form EncodeResult
// produces. Any other byte sequence, including one encoding/json would
// accept, is an error.
func DecodeResult(data []byte) (*Result, error) {
	d := decoder{data: data}
	r := new(Result)
	r.TimeS = d.float(`{"TimeS":`)
	r.EnergyJ = d.float(`,"EnergyJ":`)
	r.Instructions = d.uint(`,"Instructions":`, math.MaxUint64)
	// Every checkpoint opens with this key, so counting it sizes the slice
	// in one allocation; a miscount only costs an append.
	r.Checkpoints = make([]Checkpoint, 0, bytes.Count(data, []byte(`{"Index":`)))
	if !d.list(`,"Checkpoints":`, func(i int) {
		r.Checkpoints = append(r.Checkpoints, Checkpoint{})
		d.checkpoint(&r.Checkpoints[i])
	}) {
		r.Checkpoints = nil
	}
	d.lit(`,"Samples":`)
	if !d.next("null") {
		s := &powmon.Series{Samples: []powmon.Sample{}}
		s.IntervalS = d.float(`{"IntervalS":`)
		if !d.list(`,"Samples":`, func(int) {
			var p powmon.Sample
			p.TimeS = d.float(`{"TimeS":`)
			p.Watts = d.float(`,"Watts":`)
			d.lit("}")
			s.Samples = append(s.Samples, p)
		}) {
			s.Samples = nil
		}
		d.lit("}")
		r.Samples = s
	}
	r.Output = []string{}
	if !d.list(`,"Output":`, func(int) { r.Output = append(r.Output, d.str()) }) {
		r.Output = nil
	}
	r.OutputTrunc = d.bool(`,"OutputTrunc":`)
	r.Switches = d.int(`,"Switches":`)
	r.Migrations = d.int(`,"Migrations":`)
	r.FinalConfig = d.config(`,"FinalConfig":`)
	d.lit("}")
	if d.err == nil && d.pos != len(data) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// decoder reads canonical result bytes front to back. The first mismatch
// sticks in err, after which every read is a no-op returning a zero value.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: decode result: %s at offset %d", what, d.pos)
	}
}

// next consumes s if it comes next, and reports whether it did.
func (d *decoder) next(s string) bool {
	if d.err != nil || len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// lit consumes s, which must come next.
func (d *decoder) lit(s string) {
	if !d.next(s) {
		d.fail(fmt.Sprintf("want %q", s))
	}
}

// list consumes key and then null, reporting false, or a list, calling
// each to consume element i and reporting true. The caller starts each
// slice empty, not nil, so that [] decodes as encoding/json decodes it.
func (d *decoder) list(key string, each func(i int)) bool {
	if d.lit(key); d.next("null") {
		return false
	}
	d.lit("[")
	for i := 0; d.err == nil && !d.next("]"); i++ {
		if i > 0 {
			d.lit(",")
		}
		each(i)
	}
	return true
}

// numberByte marks the bytes that can appear in a JSON number.
var numberByte = [256]bool{'+': true, '-': true, '.': true, 'E': true, 'e': true,
	'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true, '7': true, '8': true, '9': true}

// number consumes the run of bytes that can belong to a JSON number.
func (d *decoder) number() []byte {
	start := d.pos
	for d.pos < len(d.data) && numberByte[d.data[d.pos]] {
		d.pos++
	}
	return d.data[start:d.pos]
}

// float consumes key and a float in appendFloat's form.
func (d *decoder) float(key string) float64 {
	if d.lit(key); d.err != nil {
		return 0
	}
	tok := d.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	if err != nil || string(appendFloat(buf[:0], f)) != string(tok) {
		d.fail("non-canonical float")
		return 0
	}
	return f
}

// uint consumes key and a canonical unsigned integer no greater than max.
func (d *decoder) uint(key string, max uint64) uint64 {
	if d.lit(key); d.err != nil {
		return 0
	}
	v, ok := digits(d.number(), max)
	if !ok {
		d.fail("non-canonical unsigned integer")
	}
	return v
}

// int consumes key and a canonical int.
func (d *decoder) int(key string) int {
	if d.lit(key); d.err != nil {
		return 0
	}
	tok := d.number()
	if len(tok) > 0 && tok[0] == '-' {
		v, ok := digits(tok[1:], -math.MinInt)
		if !ok || v == 0 {
			d.fail("non-canonical integer")
		}
		return -int(v)
	}
	v, ok := digits(tok, math.MaxInt)
	if !ok {
		d.fail("non-canonical integer")
	}
	return int(v)
}

// digits parses tok as a decimal with no sign and no leading zero, no
// greater than max.
func digits(tok []byte, max uint64) (uint64, bool) {
	if len(tok) == 0 || len(tok) > 1 && tok[0] == '0' {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		dg := uint64(c - '0')
		if v > (max-dg)/10 {
			return 0, false
		}
		v = v*10 + dg
	}
	return v, true
}

func (d *decoder) bool(key string) bool {
	if d.lit(key); d.next("true") {
		return true
	}
	d.lit("false")
	return false
}

// str consumes a string token exactly as encoding/json writes it.
func (d *decoder) str() string {
	start := d.pos
	if !d.next(`"`) {
		d.fail("want string")
		return ""
	}
	for ; d.pos < len(d.data); d.pos++ {
		switch d.data[d.pos] {
		case '\\':
			d.pos++
		case '"':
			d.pos++
			tok := d.data[start:d.pos]
			var s string
			if json.Unmarshal(tok, &s) != nil {
				d.fail("bad string")
				return ""
			}
			if q, _ := json.Marshal(s); string(q) != string(tok) {
				d.fail("non-canonical string")
				return ""
			}
			return s
		}
	}
	d.fail("unterminated string")
	return ""
}

func (d *decoder) config(key string) hw.Config {
	var c hw.Config
	d.lit(key)
	c.Little = d.int(`{"Little":`)
	c.Big = d.int(`,"Big":`)
	d.lit("}")
	return c
}

func (d *decoder) checkpoint(ck *Checkpoint) {
	ck.Index = d.int(`{"Index":`)
	ck.TimeS = d.float(`,"TimeS":`)
	ck.DurS = d.float(`,"DurS":`)
	ck.Config = d.config(`,"Config":`)
	ck.ProgPhase = features.Phase(d.uint(`,"ProgPhase":`, math.MaxUint8))
	ck.HW.Instructions = d.uint(`,"HW":{"Instructions":`, math.MaxUint64)
	ck.HW.Cycles = d.uint(`,"Cycles":`, math.MaxUint64)
	ck.HW.CacheAccesses = d.uint(`,"CacheAccesses":`, math.MaxUint64)
	ck.HW.CacheMisses = d.uint(`,"CacheMisses":`, math.MaxUint64)
	ck.HW.BusySeconds = d.float(`,"BusySeconds":`)
	ck.HW.WindowSeconds = d.float(`,"WindowSeconds":`)
	ck.HWPhase.IPCBucket = d.int(`},"HWPhase":{"IPCBucket":`)
	ck.HWPhase.CMABucket = d.int(`,"CMABucket":`)
	ck.HWPhase.CMIBucket = d.int(`,"CMIBucket":`)
	ck.HWPhase.CPUBucket = d.int(`,"CPUBucket":`)
	ck.EnergyJ = d.float(`},"EnergyJ":`)
	d.lit("}")
}

// AppendFingerprint appends a stable identity for a set of option knobs to
// b, for simulation cache keys. The bytes are exactly what fmt's %+v prints
// for o — fields in declaration order, InitialConfig in its String form,
// floats as %v formats them — with retiredFingerprintSlots before the
// closing brace, because every stored key was built from that form;
// TestAppendFingerprintMatchesPlusV fills every field by reflection and
// holds the two equal, so a field added to Options must be added here
// too. Interface-valued fields (OS, Actuator, Hybrid) are the caller's
// responsibility: they carry behaviour that the caller must name in its
// own part of the key, so AppendFingerprint rejects options that still
// have them set.
func (o Options) AppendFingerprint(b []byte) ([]byte, error) {
	if o.OS != nil || o.Actuator != nil || o.Hybrid != nil {
		return b, errors.New("sim: options fingerprint requires nil OS/Actuator/Hybrid (name policies separately)")
	}
	b = strconv.AppendInt(append(b, "{Seed:"...), o.Seed, 10)
	b = append(b, " Args:["...)
	for i, a := range o.Args {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, a, 10)
	}
	b = o.InitialConfig.Append(append(b, "] InitialConfig:"...))
	b = appendFloatField(b, " QuantumS:", o.QuantumS)
	b = appendFloatField(b, " TickS:", o.TickS)
	b = appendFloatField(b, " CheckpointS:", o.CheckpointS)
	b = appendFloatField(b, " SampleS:", o.SampleS)
	b = appendFloatField(b, " MaxTimeS:", o.MaxTimeS)
	b = strconv.AppendInt(append(b, " MaxThreads:"...), int64(o.MaxThreads), 10)
	b = strconv.AppendInt(append(b, " StackCells:"...), o.StackCells, 10)
	b = append(b, " OS:<nil> Actuator:<nil> Hybrid:<nil> BoundsCheck:"...)
	b = strconv.AppendBool(b, o.BoundsCheck)
	b = strconv.AppendBool(append(b, " CaptureOutput:"...), o.CaptureOutput)
	b = strconv.AppendInt(append(b, " MaxOutput:"...), int64(o.MaxOutput), 10)
	b = strconv.AppendBool(append(b, " LegacyInterp:"...), o.LegacyInterp)
	return append(b, retiredFingerprintSlots...), nil
}

// retiredFingerprintSlots closes every fingerprint with the five blocking
// latencies that were once Options fields. No caller ever set them, so
// every stored key carries them as zeros; writing them keeps those keys.
const retiredFingerprintSlots = " UserInputLatencyS:0 FileReadLatencyS:0 WriteLatencyS:0 NetLatencyS:0 WakeLatencyS:0}"

// appendFloatField appends name and f as %v prints a float64.
func appendFloatField(b []byte, name string, f float64) []byte {
	return strconv.AppendFloat(append(b, name...), f, 'g', -1, 64)
}
