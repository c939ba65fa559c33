package sim

// Tests for the canonical result codec. encoding/json is the reference
// here and only here: EncodeResult must produce exactly json.Marshal's
// bytes, and every input DecodeResult accepts must be one json.Unmarshal
// accepts with the same value, re-encoding to the same bytes.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"astro/internal/hw"
	"astro/internal/powmon"
	"astro/internal/workloads"
)

// interestingFloats are the values at the edges of encoding/json's float
// format: signed zero, the 'f'/'e' switch at 1e-6 and 1e21, subnormals and
// the largest finite value.
var interestingFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7,
	1e20, 1e21, 999999999999999900000, 1.2345e-300, 5e-324, -5e-324,
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 123456789.125,
}

// stringPieces mix what encoding/json escapes (quotes, control
// characters, HTML characters, U+2028/U+2029), what it replaces (invalid
// UTF-8), and plain multi-byte text.
var stringPieces = []string{
	"a", "42", " ", `"`, `\`, "\n", "\t", "\x00", "\x1f", "<", ">", "&",
	"\u2028", "\u2029", "é", "\ufffd", "\xff", "\xc3", "日本", "\U0001F600", "\x7f",
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return interestingFloats[rng.Intn(len(interestingFloats))]
	case 1:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	return float64(rng.Intn(2000) - 1000)
}

func randString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		sb.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return sb.String()
}

// fillRandom sets every exported field reachable from v to a random value
// by reflection. A field added to Result or to any type inside it is
// filled too, so it shows up in json.Marshal's bytes and the encoder
// comparison fails until the codec writes it. A field of a kind the filler
// has no generator for fails the test outright.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(randFloat(rng))
	case reflect.Int:
		switch rng.Intn(4) {
		case 0:
			v.SetInt([]int64{0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(4)])
		case 1:
			v.SetInt(int64(rng.Uint64()))
		default:
			v.SetInt(int64(rng.Intn(100)))
		}
	case reflect.Uint8, reflect.Uint64:
		if rng.Intn(2) == 0 {
			v.SetUint(uint64(rng.Intn(4)))
		} else {
			v.SetUint(rng.Uint64() >> (64 - v.Type().Bits()))
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.String:
		v.SetString(randString(rng))
	case reflect.Slice:
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + rng.Intn(4)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < v.Len(); i++ {
				fillRandom(t, rng, v.Index(i))
			}
		}
	case reflect.Pointer:
		if rng.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillRandom(t, rng, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(t, rng, v.Field(i))
			}
		}
	default:
		t.Fatalf("no random generator for %s (%s): teach EncodeResult, DecodeResult and fillRandom the new field", v.Type(), v.Kind())
	}
}

// checkEncode requires EncodeResult to match json.Marshal byte for byte
// and returns the bytes.
func checkEncode(t *testing.T, r *Result) []byte {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	got, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeResult differs from encoding/json:\n got: %s\nwant: %s", got, want)
	}
	return got
}

// checkRoundTrip decodes canonical bytes and requires the value back and
// the same bytes again. Output with invalid UTF-8 is the one value whose
// bytes do not round-trip — encoding/json writes its bad bytes as
// \ufffd, which decodes to a valid rune — so DecodeResult must refuse it.
func checkRoundTrip(t *testing.T, r *Result, data []byte) {
	t.Helper()
	got, err := DecodeResult(data)
	for _, s := range r.Output {
		if !utf8.ValidString(s) {
			if err == nil {
				t.Fatalf("DecodeResult accepted non-round-tripping bytes %s", data)
			}
			return
		}
	}
	if err != nil {
		t.Fatalf("DecodeResult(%s): %v", data, err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip changed the value:\n got: %+v\nwant: %+v", got, r)
	}
	if again, _ := EncodeResult(got); !bytes.Equal(again, data) {
		t.Fatalf("re-encoding differs:\n got: %s\nwant: %s", again, data)
	}
}

// TestCodecMatchesEncodingJSON is the schema-drift guard and the encoder
// property test: randomly filled Results, every exported field set.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var r Result
		fillRandom(t, rng, reflect.ValueOf(&r).Elem())
		checkRoundTrip(t, &r, checkEncode(t, &r))
	}
}

func TestCodecEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ck := Checkpoint{Index: 3, TimeS: 1e-7, DurS: 1e21, Config: hw.Config{Little: 2, Big: 1}, ProgPhase: 255, EnergyJ: negZero}
	ck.HW.Instructions = math.MaxUint64
	ck.HW.BusySeconds = 5e-324
	ck.HW.WindowSeconds = math.MaxFloat64
	ck.HWPhase.CPUBucket = -1
	cases := map[string]*Result{
		"zero":          {},
		"negative zero": {TimeS: negZero, EnergyJ: negZero},
		"float edges":   {TimeS: 1e-7, EnergyJ: 1e21, Checkpoints: []Checkpoint{ck, {}}},
		"int edges":     {Switches: math.MinInt, Migrations: math.MaxInt, FinalConfig: hw.Config{Little: -7}},
		"empty slices":  {Checkpoints: []Checkpoint{}, Output: []string{}, Samples: &powmon.Series{Samples: []powmon.Sample{}}},
		"nil samples":   {Samples: &powmon.Series{IntervalS: 5e-5}},
		"samples": {Samples: &powmon.Series{IntervalS: 5e-5, Samples: []powmon.Sample{
			{TimeS: 0, Watts: 1.25}, {TimeS: 5e-5, Watts: 9.999999999999999e-7}}}},
		"html output":  {Output: []string{"<a href=\"x\">&amp;</a>", "", "\u2028\u2029", "\x01\t\n"}, OutputTrunc: true},
		"bad utf8":     {Output: []string{"\xff\xfe", "ok\xc3"}},
		"valid fffd":   {Output: []string{"\ufffd"}},
		"astral plane": {Output: []string{"\U0001F600 日本"}},
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) {
			checkRoundTrip(t, r, checkEncode(t, r))
		})
	}
	if got := string(checkEncode(t, cases["negative zero"])); !strings.HasPrefix(got, `{"TimeS":-0,"EnergyJ":-0,`) {
		t.Errorf("-0 encoded as %s", got)
	}
	if got := string(checkEncode(t, cases["float edges"])); !strings.Contains(got, `"TimeS":1e-7,"DurS":1e+21`) {
		t.Errorf("exponent form wrong: %s", got)
	}
}

func TestEncodeRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, r := range map[string]*Result{
			"top level":  {EnergyJ: f},
			"checkpoint": {Checkpoints: []Checkpoint{{DurS: 1}, {EnergyJ: f}}},
			"sample":     {Samples: &powmon.Series{Samples: []powmon.Sample{{Watts: f}}}},
		} {
			if _, err := json.Marshal(r); err == nil {
				t.Fatalf("%s %v: encoding/json accepted it", name, f)
			}
			if data, err := EncodeResult(r); err == nil {
				t.Errorf("%s %v: EncodeResult gave %s, want an error", name, f, data)
			}
		}
	}
	if _, err := EncodeResult(nil); err == nil {
		t.Error("EncodeResult(nil) succeeded")
	}
}

// TestDecodeRefusesNonCanonical feeds DecodeResult bytes encoding/json
// would accept (or nearly) but EncodeResult never writes.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	r := &Result{TimeS: 1.5, EnergyJ: 2, Instructions: 10, Checkpoints: []Checkpoint{{Index: 1}},
		Samples: &powmon.Series{IntervalS: 1, Samples: []powmon.Sample{{}}}, Output: []string{"hi"}, Switches: 3}
	canon := string(checkEncode(t, r))
	if _, err := DecodeResult([]byte(canon)); err != nil {
		t.Fatalf("canonical bytes refused: %v", err)
	}
	edits := [][2]string{
		{`{"TimeS":1.5`, ` {"TimeS":1.5`},
		{`{"TimeS":1.5`, `{ "TimeS":1.5`},
		{`"TimeS":1.5`, `"TimeS": 1.5`},
		{`"TimeS":1.5`, `"times":1.5`},
		{`"TimeS":1.5`, `"TimeS":1.50`},
		{`"TimeS":1.5`, `"TimeS":15e-1`},
		{`"TimeS":1.5`, `"TimeS":"1.5"`},
		{`"EnergyJ":2`, `"EnergyJ":2.0`},
		{`"EnergyJ":2`, `"EnergyJ":+2`},
		{`"EnergyJ":2`, `"EnergyJ":1e999`},
		{`"Instructions":10`, `"Instructions":010`},
		{`"Instructions":10`, `"Instructions":-10`},
		{`"Instructions":10`, `"Instructions":1e1`},
		{`"Instructions":10`, `"Instructions":18446744073709551616`},
		{`"Switches":3`, `"Switches":-0`},
		{`"Switches":3`, `"Switches":3.0`},
		{`"Switches":3`, `"Switches":9223372036854775808`},
		{`"ProgPhase":0`, `"ProgPhase":256`},
		{`"Output":["hi"]`, `"Output":["\u0068i"]`},
		{`"Output":["hi"]`, `"Output":["hi",]`},
		{`"Output":["hi"]`, `"Output":[,"hi"]`},
		{`"Output":["hi"]`, `"Output":["h`},
		{`"OutputTrunc":false`, `"OutputTrunc":0`},
		{`"OutputTrunc":false`, `"OutputTrunc":null`},
		{`"Samples":[{"TimeS":0,"Watts":0}]`, `"Samples":[{"Watts":0,"TimeS":0}]`},
		{`"Migrations":0,`, `"Migrations":0,"Extra":1,`},
		{`"Big":0}}`, `"Big":0}} `},
		{`"Big":0}}`, `"Big":0}}{}`},
	}
	for _, e := range edits {
		if !strings.Contains(canon, e[0]) {
			t.Fatalf("fixture lacks %s: %s", e[0], canon)
		}
		bad := strings.Replace(canon, e[0], e[1], 1)
		if res, err := DecodeResult([]byte(bad)); err == nil {
			t.Errorf("accepted %s as %+v", bad, res)
		}
	}
	for i := 0; i < len(canon); i++ {
		if _, err := DecodeResult([]byte(canon[:i])); err == nil {
			t.Errorf("accepted the %d-byte prefix %s", i, canon[:i])
		}
	}
}

// FuzzDecodeResult mutates canonical results. DecodeResult must never
// panic, and whatever it accepts encoding/json must accept as the same
// value, which EncodeResult turns back into the input bytes. The committed
// corpus holds a registry workload's result, a Fig. 3-style sampled run
// (non-nil Samples, learning-binary program phases) and a run with
// captured, truncated output.
func FuzzDecodeResult(f *testing.F) {
	for _, r := range []*Result{{}, {Checkpoints: []Checkpoint{}, Samples: &powmon.Series{}, Output: []string{"<&>"}}} {
		data, err := EncodeResult(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		var ref Result
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("accepted bytes encoding/json refuses (%v): %q", err, data)
		}
		if !reflect.DeepEqual(*r, ref) {
			t.Fatalf("decoded value differs from encoding/json's:\n got: %+v\nwant: %+v", *r, ref)
		}
		again, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical bytes:\n  in: %q\n out: %q", data, again)
		}
	})
}

// benchResult is the canonical result of a registry workload at its small
// scale: ten checkpoints and no samples or output, the shape of a typical
// campaign cell.
func benchResult(b *testing.B) *Result {
	b.Helper()
	spec, ok := workloads.ByName("matrixmul")
	if !ok {
		b.Fatal("matrixmul not registered")
	}
	mod, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(mod, hw.OdroidXU4(), Options{Seed: 1, Args: spec.SmallArgs()})
	if err != nil {
		b.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkEncodeResult(b *testing.B) {
	r := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResult(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResult(b *testing.B) {
	data, err := EncodeResult(benchResult(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResult(data); err != nil {
			b.Fatal(err)
		}
	}
}
