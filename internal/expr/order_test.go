package expr

import (
	"math"
	"testing"
)

// TestOrderKeyMonotone walks each of the ten types through an ascending
// ladder of values — type extremes, ±Inf, both zeros, subnormals, NaN
// payloads — and checks that OrderKey (on stored bits) and Value.OrderKey
// rise strictly between ladder rungs and are equal within one: -0 with
// +0, and every NaN with every other NaN, above +Inf.
func TestOrderKeyMonotone(t *testing.T) {
	f32 := func(bits uint32) Value { return NewFloat(Float32, float64(math.Float32frombits(bits))) }
	f64 := func(bits uint64) Value { return Value{Type: Float64, Bits: bits} }
	ints := func(typ Type, vs ...int64) [][]Value {
		var out [][]Value
		for _, v := range vs {
			out = append(out, []Value{NewInt(typ, v)})
		}
		return out
	}
	uints := func(typ Type, vs ...uint64) [][]Value {
		var out [][]Value
		for _, v := range vs {
			out = append(out, []Value{NewUint(typ, v)})
		}
		return out
	}
	ladders := map[Type][][]Value{
		Int8:   ints(Int8, math.MinInt8, -100, -1, 0, 1, 100, math.MaxInt8),
		Int16:  ints(Int16, math.MinInt16, -300, -1, 0, 1, 300, math.MaxInt16),
		Int32:  ints(Int32, math.MinInt32, -70000, -1, 0, 1, 70000, math.MaxInt32),
		Int64:  ints(Int64, math.MinInt64, -1<<40, -1, 0, 1, 1<<40, math.MaxInt64),
		Uint8:  uints(Uint8, 0, 1, 0x7f, 0x80, math.MaxUint8),
		Uint16: uints(Uint16, 0, 1, 0x7fff, 0x8000, math.MaxUint16),
		Uint32: uints(Uint32, 0, 1, 0x7fffffff, 0x80000000, math.MaxUint32),
		Uint64: uints(Uint64, 0, 1, 1<<63-1, 1<<63, math.MaxUint64),
		Float32: {
			{NewFloat(Float32, math.Inf(-1))},
			{NewFloat(Float32, -math.MaxFloat32)},
			{NewFloat(Float32, -1)},
			{f32(0x80000001)}, // negative subnormal
			{NewFloat(Float32, math.Copysign(0, -1)), NewFloat(Float32, 0)},
			{f32(1)}, // positive subnormal
			{NewFloat(Float32, 1)},
			{NewFloat(Float32, math.MaxFloat32)},
			{NewFloat(Float32, math.Inf(1))},
			{f32(0x7fc00000), f32(0x7f800001), f32(0xffc00000), f32(0xff800001)},
		},
		Float64: {
			{NewFloat(Float64, math.Inf(-1))},
			{NewFloat(Float64, -math.MaxFloat64)},
			{NewFloat(Float64, -1)},
			{f64(0x8000000000000001)},
			{NewFloat(Float64, math.Copysign(0, -1)), NewFloat(Float64, 0)},
			{f64(1)},
			{NewFloat(Float64, 1)},
			{NewFloat(Float64, math.MaxFloat64)},
			{NewFloat(Float64, math.Inf(1))},
			{f64(0x7ff8000000000000), f64(0x7ff0000000000001), f64(0xfff8000000000000), f64(0xfff0000000000001)},
		},
	}
	if len(ladders) != NumTypes {
		t.Fatalf("ladders cover %d types, want %d", len(ladders), NumTypes)
	}
	for typ, ladder := range ladders {
		var prev uint64
		for r, rung := range ladder {
			want := rung[0].OrderKey()
			for _, v := range rung {
				for name, k := range map[string]uint64{"Value.OrderKey": v.OrderKey(), "OrderKey": OrderKey(typ, storedBits(v))} {
					if k != want {
						t.Errorf("%s %s: %s = %#x, want %#x like %s", typ, v, name, k, want, rung[0])
					}
				}
				if nan := typ.Float() && v.Float() != v.Float(); IsNaNBits(typ, storedBits(v)) != nan {
					t.Errorf("%s %s: IsNaNBits = %v", typ, v, !nan)
				}
			}
			if r > 0 && want <= prev {
				t.Errorf("%s: key of %s (%#x) not above key of %s (%#x)", typ, rung[0], want, ladder[r-1][0], prev)
			}
			prev = want
		}
	}
}

// storedBits is v as a column lane stores it: zero-extended to 64 bits,
// a float32 as its 32-bit pattern.
func storedBits(v Value) uint64 {
	if v.Type == Float32 {
		return uint64(math.Float32bits(float32(v.Float())))
	}
	return v.Bits & widthMask(v.Type)
}

// TestRadixOrderStable sorts two-word rows and checks the order against
// the words and that equal rows keep their input order.
func TestRadixOrderStable(t *testing.T) {
	rows := [][2]uint64{{1, 5}, {0, 1 << 63}, {1, 5}, {0, 7}, {1, 0}, {0, 7}, {0, 1 << 63}}
	words := make([]uint64, 0, 2*len(rows))
	for _, r := range rows {
		words = append(words, r[0], r[1])
	}
	want := []int32{3, 5, 1, 6, 4, 0, 2}
	got := RadixOrder(words, 2, len(rows))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RadixOrder = %v, want %v", got, want)
		}
	}
}
