package expr

import "math"

// The value order (DESIGN.md §9): every sort, bound and search of column
// values compares OrderKey words as unsigned integers. Predicates keep
// IEEE semantics in CompareBits and Value.Compare; the two agree on every
// non-NaN value, so a bound kept over the non-NaN rows can prune one.

// OrderKey maps a value of type t, given as its stored bits (zero-extended
// lane contents, as Column.Raw returns them), to a word whose unsigned
// order is the value order: signed integers with the sign bit flipped,
// floats by the IEEE total-order trick with -0 folded onto +0 and every
// NaN mapped above +Inf.
func OrderKey(t Type, bits uint64) uint64 {
	switch {
	case t == Float32:
		return floatKey(float64(math.Float32frombits(uint32(bits))))
	case t == Float64:
		return floatKey(math.Float64frombits(bits))
	case t.Signed():
		return uint64(signExtendBits(bits, t.Size())) ^ 1<<63
	default:
		return bits
	}
}

// OrderKey returns v's key in the value order (see the package-level
// OrderKey; a Float32 Value holds widened float64 bits).
func (v Value) OrderKey() uint64 {
	if v.Type.Float() {
		return floatKey(v.Float())
	}
	return OrderKey(v.Type, v.Bits)
}

func floatKey(f float64) uint64 {
	switch {
	case f != f:
		return math.MaxUint64
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// IsNaNBits reports whether stored bits of type t hold a NaN, the only
// float value with the top key.
func IsNaNBits(t Type, bits uint64) bool {
	return t.Float() && OrderKey(t, bits) == math.MaxUint64
}

// RadixOrder returns the ids 0..n-1 ordered by their rows of stride words
// (most significant first), ties in id order. It is an LSD radix sort —
// stable byte pass by byte pass — that skips the bytes every row shares.
// It allocates two n-entry id arrays.
func RadixOrder(words []uint64, stride, n int) []int32 {
	ids, tmp := make([]int32, n), make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	for w := stride - 1; w >= 0 && n > 1; w-- {
		for shift := 0; shift < 64; shift += 8 {
			var at [256]int
			for _, id := range ids {
				at[byte(words[int(id)*stride+w]>>shift)]++
			}
			if at[byte(words[w]>>shift)] == n {
				continue
			}
			sum := 0
			for b, c := range at {
				at[b] = sum
				sum += c
			}
			for _, id := range ids {
				b := byte(words[int(id)*stride+w] >> shift)
				tmp[at[b]] = id
				at[b]++
			}
			ids, tmp = tmp, ids
		}
	}
	return ids
}
