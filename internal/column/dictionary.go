package column

import (
	"fmt"
	"math/bits"
	"sort"

	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// DictColumn is a dictionary-encoded column: a sorted dictionary of
// distinct values plus a bit-packed array of value codes. This implements
// the paper's "compression scheme such as dictionary encoding" assumption
// and its future-work direction (bit-packing / null suppression): because
// the dictionary is sorted, every comparison predicate on values can be
// rewritten to a comparison predicate on codes, which are then scanned
// through the very same fused kernels after an unpack step.
type DictColumn struct {
	name     string
	typ      expr.Type
	n        int
	dict     []expr.Value // sorted in the value order (expr.OrderKey)
	codeBits int          // bits per packed code (>= 1)
	packed   []uint64     // bit-packed codes, little-endian within words
	base     uint64
}

// Encode dictionary-compresses a plain column. Nullable columns are not
// supported (the paper's bit-packing future work concerns value
// compression; NULL handling in code space would need a reserved code).
func Encode(space *mach.AddrSpace, c *Column) *DictColumn {
	if c.HasNulls() {
		panic(fmt.Sprintf("column %s: dictionary encoding of nullable columns is not supported", c.Name()))
	}
	n := c.Len()
	seen := make(map[uint64]struct{})
	var distinct []expr.Value
	var keys []uint64
	for i := 0; i < n; i++ {
		raw := c.Raw(i)
		if _, ok := seen[raw]; !ok {
			seen[raw] = struct{}{}
			distinct = append(distinct, c.Value(i))
			keys = append(keys, expr.OrderKey(c.Type(), raw))
		}
	}
	dict := make([]expr.Value, len(distinct))
	for code, i := range expr.RadixOrder(keys, 1, len(distinct)) {
		dict[code] = distinct[i]
	}

	codeOf := make(map[uint64]uint32, len(dict))
	for code, v := range dict {
		codeOf[StoredBits(v)&widthMaskBytes(c.Type().Size())] = uint32(code)
	}

	cb := bits.Len(uint(len(dict) - 1))
	if cb == 0 {
		cb = 1
	}
	d := &DictColumn{
		name:     c.Name(),
		typ:      c.Type(),
		n:        n,
		dict:     dict,
		codeBits: cb,
		packed:   make([]uint64, (n*cb+63)/64),
		base:     space.Alloc((n*cb + 7) / 8),
	}
	for i := 0; i < n; i++ {
		d.setCode(i, codeOf[c.Raw(i)])
	}
	return d
}

func widthMaskBytes(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(8*size) - 1
}

func (d *DictColumn) setCode(i int, code uint32) {
	bit := i * d.codeBits
	word, off := bit/64, uint(bit%64)
	d.packed[word] |= uint64(code) << off
	if off+uint(d.codeBits) > 64 {
		d.packed[word+1] |= uint64(code) >> (64 - off)
	}
}

// Code returns the packed code of row i.
func (d *DictColumn) Code(i int) uint32 {
	bit := i * d.codeBits
	word, off := bit/64, uint(bit%64)
	v := d.packed[word] >> off
	if off+uint(d.codeBits) > 64 {
		v |= d.packed[word+1] << (64 - off)
	}
	return uint32(v & (1<<uint(d.codeBits) - 1))
}

// Name returns the column name.
func (d *DictColumn) Name() string { return d.name }

// Type returns the logical (decoded) value type.
func (d *DictColumn) Type() expr.Type { return d.typ }

// Len returns the number of rows.
func (d *DictColumn) Len() int { return d.n }

// CodeBits returns the packed width of one code in bits.
func (d *DictColumn) CodeBits() int { return d.codeBits }

// DictSize returns the number of distinct values.
func (d *DictColumn) DictSize() int { return len(d.dict) }

// Base returns the simulated base address of the packed code array.
func (d *DictColumn) Base() uint64 { return d.base }

// PackedBytes returns the size of the packed code array in bytes.
func (d *DictColumn) PackedBytes() int { return (d.n*d.codeBits + 7) / 8 }

// Value decodes row i.
func (d *DictColumn) Value(i int) expr.Value { return d.dict[d.Code(i)] }

// CodeRange is a predicate on dictionary codes: code c matches when
// Lo <= c < Hi, or, with Out set, when it does not. Lo <= Hi always.
type CodeRange struct {
	Lo, Hi uint32
	Out    bool
}

// Match reports whether code satisfies the range. As one unsigned
// comparison: c - Lo < Hi - Lo.
func (r CodeRange) Match(code uint32) bool { return (code-r.Lo < r.Hi-r.Lo) != r.Out }

// Empty reports whether no code can match.
func (r CodeRange) Empty() bool { return !r.Out && r.Lo == r.Hi }

// CodePredicate rewrites a value predicate into an equivalent range of
// codes, exploiting the sorted dictionary: the values a comparison selects
// are contiguous in the value order, except that `<>` selects the rest.
// Predicates keep IEEE semantics, which the value order alone does not
// give: the NaNs sorted last satisfy only `<>`, and -0 and +0, two codes
// of equal order, both satisfy `= 0`.
func (d *DictColumn) CodePredicate(op expr.CmpOp, v expr.Value) (CodeRange, error) {
	if v.Type != d.typ {
		return CodeRange{}, fmt.Errorf("column %s: predicate type %s on %s column", d.name, v.Type, d.typ)
	}
	if !op.Valid() {
		return CodeRange{}, fmt.Errorf("column %s: invalid operator", d.name)
	}
	if isNaN(v) {
		// A NaN differs from every value and orders against none.
		return CodeRange{Out: op == expr.Ne}, nil
	}
	// The non-NaN codes are [0, nan); v's equals are [lower, upper).
	nan := sort.Search(len(d.dict), func(i int) bool { return isNaN(d.dict[i]) })
	k := v.OrderKey()
	lower := uint32(sort.Search(nan, func(i int) bool { return d.dict[i].OrderKey() >= k }))
	upper := uint32(sort.Search(nan, func(i int) bool { return d.dict[i].OrderKey() > k }))
	switch op {
	case expr.Eq:
		return CodeRange{Lo: lower, Hi: upper}, nil
	case expr.Ne:
		return CodeRange{Lo: lower, Hi: upper, Out: true}, nil
	case expr.Lt:
		return CodeRange{Hi: lower}, nil
	case expr.Le:
		return CodeRange{Hi: upper}, nil
	case expr.Gt:
		return CodeRange{Lo: upper, Hi: uint32(nan)}, nil
	default: // expr.Ge
		return CodeRange{Lo: lower, Hi: uint32(nan)}, nil
	}
}

// UnpackCodes decodes the packed codes of rows [begin, end) into a uint32
// column allocated in the given space. This is the unpack step the paper's
// future-work section describes: after unpacking, the codes are scanned by
// the unchanged fused kernels (with the predicate rewritten by
// CodePredicate).
func (d *DictColumn) UnpackCodes(space *mach.AddrSpace, begin, end int) *Column {
	if begin < 0 || end > d.n || begin > end {
		panic("column: UnpackCodes range out of bounds")
	}
	c := New(space, d.name+"$codes", expr.Uint32, end-begin)
	for i := begin; i < end; i++ {
		c.SetRaw(i-begin, uint64(d.Code(i)))
	}
	return c
}
