package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"astro/internal/hw"
)

// fingerprintFloats are the edges of %v's float format: signed zero, the
// switch to 'e' notation below 1e-4 and from 1e21, and the infinities,
// which %v prints as +Inf and -Inf.
var fingerprintFloats = []float64{
	0, math.Copysign(0, -1), 1e-5, 1e-7, 1e20, 1e21, math.Inf(1), math.Inf(-1),
	0.0001, 4e-07, 1e+21, -1.5, math.SmallestNonzeroFloat64, math.MaxFloat64,
}

// fillOptions sets every field reachable from v to a random value by
// reflection, leaving interface fields (the policies) nil. A field of a
// kind it has no generator for fails the test, so a field added to
// Options cannot pass without a look at AppendFingerprint.
func fillOptions(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		if rng.Intn(2) == 0 {
			v.SetFloat(fingerprintFloats[rng.Intn(len(fingerprintFloats))])
			break
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				v.SetFloat(f)
				break
			}
		}
	case reflect.Int, reflect.Int64:
		switch rng.Intn(3) {
		case 0:
			v.SetInt([]int64{0, -1, math.MinInt64 >> (64 - v.Type().Bits()), math.MaxInt64 >> (64 - v.Type().Bits())}[rng.Intn(4)])
		case 1:
			v.SetInt(int64(rng.Uint64()) >> (64 - v.Type().Bits()))
		default:
			v.SetInt(int64(rng.Intn(200) - 100))
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Slice:
		switch rng.Intn(3) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + rng.Intn(4)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fillOptions(t, rng, v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillOptions(t, rng, v.Field(i))
		}
	case reflect.Interface:
		// Policies stay nil: AppendFingerprint refuses them.
	default:
		t.Fatalf("no random generator for %s (%s): teach AppendFingerprint and fillOptions the new field", v.Type(), v.Kind())
	}
}

// TestAppendFingerprintMatchesPlusV holds AppendFingerprint to the bytes
// fmt's %+v prints for the same Options, which is what every stored cache
// key was built from.
func TestAppendFingerprintMatchesPlusV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []Options{{}, {Args: []int64{}}, {InitialConfig: hw.Config{Little: 4, Big: 4}}}
	for i := 0; i < 2000; i++ {
		var o Options
		fillOptions(t, rng, reflect.ValueOf(&o).Elem())
		cases = append(cases, o)
	}
	for _, o := range cases {
		want := fmt.Sprintf("%+v", o)
		got, err := o.AppendFingerprint([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+want {
			t.Fatalf("AppendFingerprint differs from %%+v:\n got: %s\nwant: prefix%s", got, want)
		}
	}

	// Policies are behaviour, not knobs: the caller names them in its own
	// part of the key, so options that still carry one are refused.
	for _, o := range []Options{{OS: &LeastLoaded{}}, {Actuator: &cyclingActuator{}}, {Hybrid: fixedHybrid{}}} {
		if _, err := o.AppendFingerprint(nil); err == nil {
			t.Fatalf("AppendFingerprint accepted options with a policy set: %+v", o)
		}
	}
}

type fixedHybrid struct{}

func (fixedHybrid) DetermineConfig(HybridState) hw.Config { return hw.Config{} }
