// Package column implements the columnar storage substrate the paper
// assumes (Section II): tables stored column-major, values of fixed size,
// contiguous in memory, optionally horizontally partitioned into chunks and
// optionally dictionary-encoded. Column bytes are stored little-endian in a
// flat slice so the emulated vector loads (internal/vec) and the gather
// instruction can operate on raw memory exactly like the paper's kernels,
// and every column carries a simulated base address for the machine model.
package column

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// Column is one fixed-width, contiguous, column-major attribute,
// optionally carrying a validity bitmap (see nulls.go).
type Column struct {
	name  string
	typ   expr.Type
	n     int
	data  []byte // n * typ.Size() bytes, little-endian lanes
	base  uint64 // simulated base address
	space *mach.AddrSpace

	nulls    []uint64 // validity bitmap, 1 = valid; nil = no NULLs
	nullOff  int      // row offset into nulls (for views)
	nullBase uint64   // simulated base address of the bitmap

	// packed, when non-nil, replaces data with the bit-packed
	// frame-of-reference representation (see packed.go); data is nil and
	// packOff is this view's row offset into the packed space.
	packed  *Packed
	packOff int

	// Lazily built zone maps keyed by rowsPerZone (see zonemap.go). Views
	// created by Slice start with an empty cache of their own; pruning
	// always consults the base column.
	zmMu     sync.Mutex
	zoneMaps map[int]*ZoneMap

	// Optimizer statistics, computed on first use (see Stats).
	statsOnce sync.Once
	stats     Stats
}

// New allocates a zeroed column with n rows, registering its address range
// in the given address space.
func New(space *mach.AddrSpace, name string, t expr.Type, n int) *Column {
	if !t.Valid() {
		panic(fmt.Sprintf("column: invalid type %d", uint8(t)))
	}
	if n < 0 {
		panic("column: negative row count")
	}
	size := n * t.Size()
	return &Column{
		name:  name,
		typ:   t,
		n:     n,
		data:  make([]byte, size),
		base:  space.Alloc(size),
		space: space,
	}
}

// NewFromBytes wraps an existing little-endian value buffer as a column
// without copying; len(data) must be a whole number of t.Size() lanes.
// The storage decoder uses this so untrusted streams are read into
// incrementally-grown buffers instead of one header-sized allocation. A
// buffer not aligned to t.Size() is copied, so View can read it in place.
func NewFromBytes(space *mach.AddrSpace, name string, t expr.Type, data []byte) *Column {
	if !t.Valid() {
		panic(fmt.Sprintf("column: invalid type %d", uint8(t)))
	}
	if len(data)%t.Size() != 0 {
		panic(fmt.Sprintf("column %s: %d bytes is not a whole number of %d-byte lanes", name, len(data), t.Size()))
	}
	if !aligned(data, t.Size()) {
		data = append([]byte(nil), data...)
	}
	return &Column{
		name:  name,
		typ:   t,
		n:     len(data) / t.Size(),
		data:  data,
		base:  space.Alloc(len(data)),
		space: space,
	}
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Type returns the column's value type.
func (c *Column) Type() expr.Type { return c.typ }

// Len returns the number of rows.
func (c *Column) Len() int { return c.n }

// Data returns the raw little-endian value bytes (nil for a packed
// column — see Packed).
func (c *Column) Data() []byte { return c.data }

// IsPacked reports whether the column stores bit-packed deltas instead of
// full-width lanes.
func (c *Column) IsPacked() bool { return c.packed != nil }

// Packed returns the packed representation and this view's row offset
// into it (nil, 0 for plain columns).
func (c *Column) Packed() (*Packed, int) { return c.packed, c.packOff }

// Base returns the simulated base address of the column.
func (c *Column) Base() uint64 { return c.base }

// Addr returns the simulated address of row i. For a packed column it is
// the address of the 64-bit word holding the row's lane.
func (c *Column) Addr(i int) uint64 {
	if p := c.packed; p != nil {
		return c.base + p.WordAddr(c.packOff+i)
	}
	return c.base + uint64(i*c.typ.Size())
}

// SetRaw stores the low bytes of the raw bit pattern at row i.
func (c *Column) SetRaw(i int, bits uint64) {
	if c.packed != nil {
		panic(fmt.Sprintf("column %s: packed columns are immutable", c.name))
	}
	s := c.typ.Size()
	off := i * s
	switch s {
	case 1:
		c.data[off] = byte(bits)
	case 2:
		binary.LittleEndian.PutUint16(c.data[off:], uint16(bits))
	case 4:
		binary.LittleEndian.PutUint32(c.data[off:], uint32(bits))
	default:
		binary.LittleEndian.PutUint64(c.data[off:], bits)
	}
}

// Raw returns the zero-extended raw bit pattern at row i. For a packed
// column the lane is decoded on the fly (reference + delta mapped back to
// stored bits); a NULL row decodes to the chunk reference, not the
// original pattern — NULL rows do not preserve their bits (packed.go).
func (c *Column) Raw(i int) uint64 {
	if p := c.packed; p != nil {
		return KeyToRaw(c.typ, p.Key(c.packOff+i))
	}
	s := c.typ.Size()
	off := i * s
	switch s {
	case 1:
		return uint64(c.data[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(c.data[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(c.data[off:]))
	default:
		return binary.LittleEndian.Uint64(c.data[off:])
	}
}

// Elem is the set of Go types a plain column's lanes hold, one per
// expr.Type; View and FromRaw are instantiated with them.
type Elem interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64 | float32 | float64
}

// FromRaw converts a lane's stored bits, as Raw returns them, into its Go
// value.
func FromRaw[T Elem](raw uint64) T {
	var v T
	switch p := any(&v).(type) {
	case *float32:
		*p = math.Float32frombits(uint32(raw))
	case *float64:
		*p = math.Float64frombits(raw)
	default:
		v = T(raw) // integers truncate to their width
	}
	return v
}

// Set stores a typed value at row i. The value must match the column type.
func (c *Column) Set(i int, v expr.Value) {
	if v.Type != c.typ {
		panic(fmt.Sprintf("column %s: storing %s into %s column", c.name, v.Type, c.typ))
	}
	c.SetRaw(i, storeBits(v))
}

// storeBits converts a Value's canonical Bits into the column's stored
// representation (floats narrow to their width; integers truncate).
func storeBits(v expr.Value) uint64 {
	switch v.Type {
	case expr.Float32:
		return uint64(math.Float32bits(float32(v.Float())))
	case expr.Float64:
		return v.Bits
	default:
		return v.Bits
	}
}

// StoredBits converts a typed value into the raw pattern as it would sit in
// a column lane of that type (what the search-value broadcast register must
// hold for a bitwise-faithful comparison).
func StoredBits(v expr.Value) uint64 { return storeBits(v) }

// Value returns the typed value at row i.
func (c *Column) Value(i int) expr.Value {
	return c.rawValue(c.Raw(i))
}

// SortWords is the number of words AppendSortWords appends per row: a
// NULL flag when the column holds NULLs, then the order key.
func (c *Column) SortWords() int {
	if c.HasNulls() {
		return 2
	}
	return 1
}

// AppendSortWords appends row i's sort words for expr.RadixOrder: the
// NULL flag (1 for NULL, so NULLs sort last in both directions) when the
// column holds NULLs, then the row's expr.OrderKey, complemented for a
// descending sort (0 for a NULL row, so NULLs keep their input order).
func (c *Column) AppendSortWords(words []uint64, i int, desc bool) []uint64 {
	if c.HasNulls() {
		if c.Null(i) {
			return append(words, 1, 0)
		}
		words = append(words, 0)
	}
	key := expr.OrderKey(c.typ, c.Raw(i))
	if desc {
		key = ^key
	}
	return append(words, key)
}

// rawValue converts stored bits into a typed value.
func (c *Column) rawValue(raw uint64) expr.Value {
	switch {
	case c.typ == expr.Float32:
		return expr.NewFloat(expr.Float32, float64(math.Float32frombits(uint32(raw))))
	case c.typ == expr.Float64:
		return expr.NewFloat(expr.Float64, math.Float64frombits(raw))
	case c.typ.Signed():
		return expr.NewInt(c.typ, signExtend(raw, c.typ.Size()))
	default:
		return expr.NewUint(c.typ, raw)
	}
}

func signExtend(raw uint64, size int) int64 {
	shift := uint(64 - 8*size)
	return int64(raw<<shift) >> shift
}

// Slice returns a zero-copy view of rows [begin, end): the view shares the
// parent's bytes and keeps the parent's address arithmetic, so scans over
// the view touch exactly the parent's memory for those rows. This is how
// chunk-at-a-time (morsel) execution reuses the unchanged kernels.
func (c *Column) Slice(begin, end int) *Column {
	if begin < 0 || end > c.n || begin > end {
		panic(fmt.Sprintf("column %s: slice [%d, %d) out of range [0, %d)", c.name, begin, end, c.n))
	}
	if c.packed != nil {
		return &Column{
			name:     c.name,
			typ:      c.typ,
			n:        end - begin,
			base:     c.base,
			space:    c.space,
			nulls:    c.nulls,
			nullOff:  c.nullOff + begin,
			nullBase: c.nullBase,
			packed:   c.packed,
			packOff:  c.packOff + begin,
		}
	}
	s := c.typ.Size()
	return &Column{
		name:     c.name,
		typ:      c.typ,
		n:        end - begin,
		data:     c.data[begin*s : end*s],
		base:     c.base + uint64(begin*s),
		space:    c.space,
		nulls:    c.nulls,
		nullOff:  c.nullOff + begin,
		nullBase: c.nullBase,
	}
}

// ScanBytes returns the stored value bytes a full scan of this view
// touches: the packed words of the covered chunks for a packed column,
// rows x lane size for a plain one. Validity-bitmap bytes are separate.
func (c *Column) ScanBytes() int64 {
	if c.n == 0 {
		return 0
	}
	if p := c.packed; p != nil {
		first := p.WordAddr(c.packOff)
		last := p.WordAddr(c.packOff + c.n - 1)
		return int64(last-first) + 8
	}
	return int64(c.n) * int64(c.typ.Size())
}

// FromInt32s builds an int32 column from a slice (convenience for tests,
// examples and generators).
func FromInt32s(space *mach.AddrSpace, name string, vals []int32) *Column {
	c := New(space, name, expr.Int32, len(vals))
	for i, v := range vals {
		c.SetRaw(i, uint64(uint32(v)))
	}
	return c
}

// FromInt64s builds an int64 column from a slice.
func FromInt64s(space *mach.AddrSpace, name string, vals []int64) *Column {
	c := New(space, name, expr.Int64, len(vals))
	for i, v := range vals {
		c.SetRaw(i, uint64(v))
	}
	return c
}

// FromFloat64s builds a float64 column from a slice.
func FromFloat64s(space *mach.AddrSpace, name string, vals []float64) *Column {
	c := New(space, name, expr.Float64, len(vals))
	for i, v := range vals {
		c.SetRaw(i, math.Float64bits(v))
	}
	return c
}

// FromFloat32s builds a float32 column from a slice.
func FromFloat32s(space *mach.AddrSpace, name string, vals []float32) *Column {
	c := New(space, name, expr.Float32, len(vals))
	for i, v := range vals {
		c.SetRaw(i, uint64(math.Float32bits(v)))
	}
	return c
}
