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

// CodePredicate rewrites a value predicate into an equivalent predicate on
// codes, exploiting the sorted dictionary. The returned bool is false when
// no row can match (e.g. equality with a value absent from the dictionary),
// in which case op/code are meaningless.
func (d *DictColumn) CodePredicate(op expr.CmpOp, v expr.Value) (expr.CmpOp, uint32, bool, error) {
	if v.Type != d.typ {
		return 0, 0, false, fmt.Errorf("column %s: predicate type %s on %s column", d.name, v.Type, d.typ)
	}
	if isNaN(v) {
		if op == expr.Ne {
			return expr.Ge, 0, true, nil // a NaN differs from every value
		}
		return 0, 0, false, nil
	}
	// lower = first index with dict[i] >= v in the value order
	k := v.OrderKey()
	lower := sort.Search(len(d.dict), func(i int) bool { return d.dict[i].OrderKey() >= k })
	exact := lower < len(d.dict) && d.dict[lower].OrderKey() == k
	switch op {
	case expr.Eq:
		if !exact {
			return 0, 0, false, nil
		}
		return expr.Eq, uint32(lower), true, nil
	case expr.Ne:
		if !exact {
			// Everything matches; encode as code >= 0.
			return expr.Ge, 0, true, nil
		}
		return expr.Ne, uint32(lower), true, nil
	case expr.Lt:
		if lower == 0 {
			return 0, 0, false, nil
		}
		return expr.Lt, uint32(lower), true, nil
	case expr.Le:
		bound := lower
		if exact {
			bound++
		}
		if bound == 0 {
			return 0, 0, false, nil
		}
		return expr.Lt, uint32(bound), true, nil
	case expr.Gt:
		bound := lower
		if exact {
			bound++
		}
		if bound >= len(d.dict) {
			return 0, 0, false, nil
		}
		return expr.Ge, uint32(bound), true, nil
	case expr.Ge:
		if lower >= len(d.dict) {
			return 0, 0, false, nil
		}
		return expr.Ge, uint32(lower), true, nil
	}
	return 0, 0, false, fmt.Errorf("column %s: invalid operator", d.name)
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
