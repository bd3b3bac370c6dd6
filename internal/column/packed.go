package column

import (
	"fmt"
	"math/bits"

	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// Bit-packed / frame-of-reference storage (storage format v3, DESIGN.md
// §15). An integer column is split into fixed-size chunks; each chunk
// stores, for every row, the delta between the row's *order-space key* and
// the chunk's reference (the minimum key over the chunk's valid rows),
// bit-packed into 64-bit words at a width chosen from the chunk's min/max.
//
// The order-space key is the value's stored bits mapped so that unsigned
// 64-bit comparison agrees with the typed comparison: unsigned types map
// identically, signed types XOR the sign bit of their width. The mapping
// is a bijection, so keys (and the deltas derived from them) round-trip to
// the exact stored bit patterns — packed scans are bit-identical to plain
// scans.
//
// Widths are restricted to divisors of 64 (1, 2, 4, 8, 16, 32, 64 bits) so
// lanes never straddle words: one word holds 64, 32, 16, 8, 4, 2 or 1
// values, and a 64-row scan block always starts on a word boundary. This
// sacrifices a little compression for branch-free SWAR evaluation — the
// same trade the byte-lane kernels already make.
//
// NULL rows store delta 0: their original bit pattern is not preserved
// (SQL semantics — every consumer checks the validity bitmap before the
// value, and a NULL row never satisfies a predicate). The chunk reference
// and maximum are exact min/max keys over VALID rows only, which makes
// them simultaneously the column's zone map and its statistics, for free.

// PackChunkRows is the packed-chunk size: one engine scan chunk (the
// pipeline batch / pruner granularity), so chunk-at-a-time execution and
// zone-map pruning align with packed-chunk boundaries.
const PackChunkRows = 1 << 16

// packedWidths are the allowed lane widths, ascending.
var packedWidths = [...]uint8{1, 2, 4, 8, 16, 32, 64}

// roundWidth rounds a required bit count up to the nearest allowed width.
func roundWidth(need int) uint8 {
	for _, w := range packedWidths {
		if int(w) >= need {
			return w
		}
	}
	return 64
}

// ValidPackedWidth reports whether w is an allowed packed lane width.
func ValidPackedWidth(w uint8) bool {
	return w == 1 || w == 2 || w == 4 || w == 8 || w == 16 || w == 32 || w == 64
}

// PackedChunk is one frame-of-reference chunk: Rows values packed at Bits
// bits per lane, least-significant lane first within each word.
type PackedChunk struct {
	Rows      int    // logical rows in this chunk (<= PackChunkRows)
	ValidRows int    // rows with a set validity bit (== Rows when no NULLs)
	Ref       uint64 // minimum order-space key over valid rows (0 if none)
	MaxKey    uint64 // maximum order-space key over valid rows (== Ref if none)
	Bits      uint8  // lane width: 1, 2, 4, 8, 16, 32 or 64
	Words     []uint64
}

// Packed is the bit-packed representation of one integer column.
type Packed struct {
	typ       expr.Type
	chunkRows int
	rows      int
	chunks    []PackedChunk
	wordOff   []uint64 // per-chunk byte offset of Words within the payload
}

// finish precomputes the per-chunk payload offsets.
func (p *Packed) finish() *Packed {
	p.wordOff = make([]uint64, len(p.chunks))
	var off uint64
	for i := range p.chunks {
		p.wordOff[i] = off
		off += uint64(len(p.chunks[i].Words)) * 8
	}
	return p
}

// Type returns the logical value type of the packed column.
func (p *Packed) Type() expr.Type { return p.typ }

// ChunkRows returns the packing chunk size.
func (p *Packed) ChunkRows() int { return p.chunkRows }

// Rows returns the total logical row count.
func (p *Packed) Rows() int { return p.rows }

// Chunks exposes the chunk metadata (read-only by convention).
func (p *Packed) Chunks() []PackedChunk { return p.chunks }

// WordBytes returns the total packed payload size in bytes.
func (p *Packed) WordBytes() int64 {
	var n int64
	for i := range p.chunks {
		n += int64(len(p.chunks[i].Words)) * 8
	}
	return n
}

// ChunkAt returns the chunk holding absolute row off and the row's lane
// index within it.
func (p *Packed) ChunkAt(off int) (*PackedChunk, int) {
	ci := off / p.chunkRows
	return &p.chunks[ci], off - ci*p.chunkRows
}

// Key returns the order-space key of absolute row off (Ref + delta).
func (p *Packed) Key(off int) uint64 {
	ch, lane := p.ChunkAt(off)
	return ch.Ref + ch.Delta(lane)
}

// Delta extracts the packed delta of one lane.
func (ch *PackedChunk) Delta(lane int) uint64 {
	w := int(ch.Bits)
	lpw := 64 / w
	word := ch.Words[lane/lpw]
	shift := uint(lane % lpw * w)
	if w == 64 {
		return word
	}
	return (word >> shift) & ((1 << uint(w)) - 1)
}

// RawToKey maps a value's stored bits into order-space: unsigned
// comparison of keys agrees with the typed comparison of the raw values.
// Only integer types are packable.
func RawToKey(t expr.Type, raw uint64) uint64 {
	if t.Signed() {
		return raw ^ (1 << uint(8*t.Size()-1))
	}
	return raw
}

// KeyToRaw is the inverse of RawToKey; the result is the exact stored bit
// pattern (zero-extended to 64 bits, like Column.Raw).
func KeyToRaw(t expr.Type, key uint64) uint64 {
	if t.Signed() {
		key ^= 1 << uint(8*t.Size()-1)
	}
	if s := t.Size(); s < 8 {
		key &= (1 << uint(8*s)) - 1
	}
	return key
}

// ValueKey maps a typed literal into the order space of a packed column
// of type t: the stored bit pattern truncated to the lane width, then
// RawToKey. This is the predicate-constant side of the packed-space
// rewrite — unsigned comparison of ValueKey against row keys agrees with
// the typed comparison of the literal against row values.
func ValueKey(t expr.Type, v expr.Value) uint64 {
	raw := StoredBits(v)
	if s := t.Size(); s < 8 {
		raw &= 1<<uint(8*s) - 1
	}
	return RawToKey(t, raw)
}

// MinMaxKeys returns the key-space bounds over all valid rows.
func (p *Packed) MinMaxKeys() (minKey, maxKey uint64, ok bool) {
	return chunkBounds(p.chunks)
}

// chunkBounds returns the key-space bounds over the valid rows of chunks,
// from their metadata alone, and whether any chunk holds a valid row.
func chunkBounds(chunks []PackedChunk) (minKey, maxKey uint64, ok bool) {
	for i := range chunks {
		ch := &chunks[i]
		switch {
		case ch.ValidRows == 0:
		case !ok:
			minKey, maxKey, ok = ch.Ref, ch.MaxKey, true
		default:
			minKey, maxKey = min(minKey, ch.Ref), max(maxKey, ch.MaxKey)
		}
	}
	return minKey, maxKey, ok
}

// NewPackedFromChunks assembles a Packed from decoded chunk metadata (the
// storage reader's entry point). It validates the invariants a hostile
// stream could violate: allowed widths, word counts matching the row
// count, chunk rows within the chunk size, and deltas representable.
func NewPackedFromChunks(t expr.Type, chunkRows, rows int, chunks []PackedChunk) (*Packed, error) {
	if !t.Valid() || !t.Integer() {
		return nil, fmt.Errorf("column: packed representation requires an integer type, got %v", t)
	}
	if chunkRows <= 0 || chunkRows%64 != 0 {
		return nil, fmt.Errorf("column: packed chunkRows %d must be a positive multiple of 64", chunkRows)
	}
	want := (rows + chunkRows - 1) / chunkRows
	if rows == 0 {
		want = 0
	}
	if len(chunks) != want {
		return nil, fmt.Errorf("column: packed column has %d chunks, want %d for %d rows", len(chunks), want, rows)
	}
	total := 0
	for i := range chunks {
		ch := &chunks[i]
		if !ValidPackedWidth(ch.Bits) {
			return nil, fmt.Errorf("column: packed chunk %d has invalid width %d", i, ch.Bits)
		}
		if ch.Rows <= 0 || ch.Rows > chunkRows {
			return nil, fmt.Errorf("column: packed chunk %d has %d rows, want 1..%d", i, ch.Rows, chunkRows)
		}
		if i < len(chunks)-1 && ch.Rows != chunkRows {
			return nil, fmt.Errorf("column: packed chunk %d is short (%d rows) before the last chunk", i, ch.Rows)
		}
		if ch.ValidRows < 0 || ch.ValidRows > ch.Rows {
			return nil, fmt.Errorf("column: packed chunk %d has %d valid rows of %d", i, ch.ValidRows, ch.Rows)
		}
		if ch.MaxKey < ch.Ref {
			return nil, fmt.Errorf("column: packed chunk %d has MaxKey below Ref", i)
		}
		if ch.Bits < 64 && ch.MaxKey-ch.Ref >= 1<<ch.Bits {
			return nil, fmt.Errorf("column: packed chunk %d spans %d keys, unrepresentable at width %d",
				i, ch.MaxKey-ch.Ref, ch.Bits)
		}
		lpw := 64 / int(ch.Bits)
		wantWords := (ch.Rows + lpw - 1) / lpw
		if len(ch.Words) != wantWords {
			return nil, fmt.Errorf("column: packed chunk %d has %d words, want %d", i, len(ch.Words), wantWords)
		}
		total += ch.Rows
	}
	if total != rows {
		return nil, fmt.Errorf("column: packed chunks cover %d rows, want %d", total, rows)
	}
	return (&Packed{typ: t, chunkRows: chunkRows, rows: rows, chunks: chunks}).finish(), nil
}

// WordAddr returns the byte offset, within the packed payload, of the
// word holding absolute row off.
func (p *Packed) WordAddr(off int) uint64 {
	ci := off / p.chunkRows
	ch := &p.chunks[ci]
	lane := off - ci*p.chunkRows
	return p.wordOff[ci] + uint64(lane/(64/int(ch.Bits)))*8
}

// Pack re-encodes an integer column bit-packed with frame-of-reference
// chunks and returns the packed column. The result shares the source's
// validity bitmap; the source is not modified. Float columns and views
// cannot be packed.
func Pack(c *Column) (*Column, error) {
	if c.packed != nil {
		return c, nil
	}
	if !c.typ.Integer() {
		return nil, fmt.Errorf("column %s: cannot pack %v (integer types only)", c.name, c.typ)
	}
	n := c.n
	chunkRows := PackChunkRows
	nChunks := (n + chunkRows - 1) / chunkRows
	p := &Packed{typ: c.typ, chunkRows: chunkRows, rows: n, chunks: make([]PackedChunk, nChunks)}
	for ci := 0; ci < nChunks; ci++ {
		begin := ci * chunkRows
		end := begin + chunkRows
		if end > n {
			end = n
		}
		ch := &p.chunks[ci]
		ch.Rows = end - begin
		// Pass 1: exact min/max keys over valid rows.
		var ref, maxKey uint64
		for i := begin; i < end; i++ {
			if c.Null(i) {
				continue
			}
			k := RawToKey(c.typ, c.Raw(i))
			if ch.ValidRows == 0 {
				ref, maxKey = k, k
			} else {
				if k < ref {
					ref = k
				}
				if k > maxKey {
					maxKey = k
				}
			}
			ch.ValidRows++
		}
		ch.Ref, ch.MaxKey = ref, maxKey
		ch.Bits = roundWidth(bits.Len64(maxKey - ref))
		if ch.Bits == 0 {
			ch.Bits = 1
		}
		// Pass 2: pack deltas (NULL rows pack delta 0).
		w := int(ch.Bits)
		lpw := 64 / w
		ch.Words = make([]uint64, (ch.Rows+lpw-1)/lpw)
		for i := begin; i < end; i++ {
			if c.Null(i) {
				continue
			}
			d := RawToKey(c.typ, c.Raw(i)) - ref
			lane := i - begin
			ch.Words[lane/lpw] |= d << uint(lane%lpw*w)
		}
	}
	return newPackedColumn(c, p.finish()), nil
}

// newPackedColumn wraps a packed representation as a Column sharing src's
// name, type, length and validity bitmap. The simulated address range
// covers the packed words, so the machine model charges compressed bytes.
func newPackedColumn(src *Column, p *Packed) *Column {
	return &Column{
		name:     src.name,
		typ:      src.typ,
		n:        src.n,
		base:     src.space.Alloc(int(p.WordBytes())),
		space:    src.space,
		nulls:    src.nulls,
		nullOff:  src.nullOff,
		nullBase: src.nullBase,
		packed:   p,
	}
}

// NewPackedColumn builds a column directly from a validated packed
// representation (the storage reader's path); NULLs are added afterwards
// with SetNull.
func NewPackedColumn(space *mach.AddrSpace, name string, p *Packed) *Column {
	return &Column{
		name:   name,
		typ:    p.typ,
		n:      p.rows,
		base:   space.Alloc(int(p.WordBytes())),
		space:  space,
		packed: p,
	}
}
