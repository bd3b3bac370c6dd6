package scan

import (
	"encoding/binary"

	"fusedscan/internal/column"
	"fusedscan/internal/vec"
)

// The native block kernels. Each returns the match bitmap (bit i = row
// base+i) of one comparison over the rows [base, base+cnt) (cnt <= 64) of
// typed column views. They are written once, generically: the compiler
// stencils one copy per element type, so each comparison compiles to that
// type's own machine compare — the specialisation the paper gets from its
// JIT, done at compile time. A full block reslices its 64 values once and
// sets eight rows per step at constant bit positions, with no
// data-dependent branch (b2u lowers to SETcc); a tail block runs a plain
// loop. compareStep derives Ne by complement and the column-vs-column
// Gt/Ge by swapping operands.

// b2u turns a comparison result into a 0/1 word.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func maskEq[T column.Elem](x []T, base, cnt int, n T) (m uint64) {
	if cnt < 64 {
		for i, v := range x[base : base+cnt] {
			m |= b2u(v == n) << uint(i)
		}
		return m
	}
	q := x[base : base+64 : base+64]
	for s := 0; s < 64; s += 8 {
		r := q[s : s+8 : s+8]
		m |= (b2u(r[0] == n) | b2u(r[1] == n)<<1 | b2u(r[2] == n)<<2 | b2u(r[3] == n)<<3 |
			b2u(r[4] == n)<<4 | b2u(r[5] == n)<<5 | b2u(r[6] == n)<<6 | b2u(r[7] == n)<<7) << uint(s)
	}
	return m
}

func maskLt[T column.Elem](x []T, base, cnt int, n T) (m uint64) {
	if cnt < 64 {
		for i, v := range x[base : base+cnt] {
			m |= b2u(v < n) << uint(i)
		}
		return m
	}
	q := x[base : base+64 : base+64]
	for s := 0; s < 64; s += 8 {
		r := q[s : s+8 : s+8]
		m |= (b2u(r[0] < n) | b2u(r[1] < n)<<1 | b2u(r[2] < n)<<2 | b2u(r[3] < n)<<3 |
			b2u(r[4] < n)<<4 | b2u(r[5] < n)<<5 | b2u(r[6] < n)<<6 | b2u(r[7] < n)<<7) << uint(s)
	}
	return m
}

func maskLe[T column.Elem](x []T, base, cnt int, n T) (m uint64) {
	if cnt < 64 {
		for i, v := range x[base : base+cnt] {
			m |= b2u(v <= n) << uint(i)
		}
		return m
	}
	q := x[base : base+64 : base+64]
	for s := 0; s < 64; s += 8 {
		r := q[s : s+8 : s+8]
		m |= (b2u(r[0] <= n) | b2u(r[1] <= n)<<1 | b2u(r[2] <= n)<<2 | b2u(r[3] <= n)<<3 |
			b2u(r[4] <= n)<<4 | b2u(r[5] <= n)<<5 | b2u(r[6] <= n)<<6 | b2u(r[7] <= n)<<7) << uint(s)
	}
	return m
}

func maskGt[T column.Elem](x []T, base, cnt int, n T) (m uint64) {
	if cnt < 64 {
		for i, v := range x[base : base+cnt] {
			m |= b2u(v > n) << uint(i)
		}
		return m
	}
	q := x[base : base+64 : base+64]
	for s := 0; s < 64; s += 8 {
		r := q[s : s+8 : s+8]
		m |= (b2u(r[0] > n) | b2u(r[1] > n)<<1 | b2u(r[2] > n)<<2 | b2u(r[3] > n)<<3 |
			b2u(r[4] > n)<<4 | b2u(r[5] > n)<<5 | b2u(r[6] > n)<<6 | b2u(r[7] > n)<<7) << uint(s)
	}
	return m
}

func maskGe[T column.Elem](x []T, base, cnt int, n T) (m uint64) {
	if cnt < 64 {
		for i, v := range x[base : base+cnt] {
			m |= b2u(v >= n) << uint(i)
		}
		return m
	}
	q := x[base : base+64 : base+64]
	for s := 0; s < 64; s += 8 {
		r := q[s : s+8 : s+8]
		m |= (b2u(r[0] >= n) | b2u(r[1] >= n)<<1 | b2u(r[2] >= n)<<2 | b2u(r[3] >= n)<<3 |
			b2u(r[4] >= n)<<4 | b2u(r[5] >= n)<<5 | b2u(r[6] >= n)<<6 | b2u(r[7] >= n)<<7) << uint(s)
	}
	return m
}

// maskEqByte and maskColEqByte are maskEq and maskColEq over 1-byte
// lanes: a full block compares eight lanes per 64-bit word with
// vec.EqByteMask (pat: the needle byte broadcast), about twice the rate of
// eight byte compares.
func maskEqByte(x []byte, base, cnt int, pat uint64) (m uint64) {
	if cnt < 64 {
		return maskEq(x, base, cnt, byte(pat))
	}
	q := x[base : base+64 : base+64]
	for w := 0; w < 64; w += 8 {
		m |= uint64(vec.EqByteMask(binary.LittleEndian.Uint64(q[w:w+8]), pat)) << uint(w)
	}
	return m
}

func maskColEqByte(x, y []byte, base, cnt int) (m uint64) {
	if cnt < 64 {
		return maskColEq(x, y, base, cnt)
	}
	p, q := x[base:base+64:base+64], y[base:base+64:base+64]
	for w := 0; w < 64; w += 8 {
		m |= uint64(vec.EqByteMask(binary.LittleEndian.Uint64(p[w:w+8]), binary.LittleEndian.Uint64(q[w:w+8]))) << uint(w)
	}
	return m
}

// The column-vs-column family: "x[i] op y[i]" over two row-aligned views.

func maskColEq[T column.Elem](x, y []T, base, cnt int) (m uint64) {
	if cnt < 64 {
		for i, v := range x[base : base+cnt] {
			m |= b2u(v == y[base+i]) << uint(i)
		}
		return m
	}
	p, q := x[base:base+64:base+64], y[base:base+64:base+64]
	for s := 0; s < 64; s += 8 {
		a, b := p[s:s+8:s+8], q[s:s+8:s+8]
		m |= (b2u(a[0] == b[0]) | b2u(a[1] == b[1])<<1 | b2u(a[2] == b[2])<<2 | b2u(a[3] == b[3])<<3 |
			b2u(a[4] == b[4])<<4 | b2u(a[5] == b[5])<<5 | b2u(a[6] == b[6])<<6 | b2u(a[7] == b[7])<<7) << uint(s)
	}
	return m
}

func maskColLt[T column.Elem](x, y []T, base, cnt int) (m uint64) {
	if cnt < 64 {
		for i, v := range x[base : base+cnt] {
			m |= b2u(v < y[base+i]) << uint(i)
		}
		return m
	}
	p, q := x[base:base+64:base+64], y[base:base+64:base+64]
	for s := 0; s < 64; s += 8 {
		a, b := p[s:s+8:s+8], q[s:s+8:s+8]
		m |= (b2u(a[0] < b[0]) | b2u(a[1] < b[1])<<1 | b2u(a[2] < b[2])<<2 | b2u(a[3] < b[3])<<3 |
			b2u(a[4] < b[4])<<4 | b2u(a[5] < b[5])<<5 | b2u(a[6] < b[6])<<6 | b2u(a[7] < b[7])<<7) << uint(s)
	}
	return m
}

func maskColLe[T column.Elem](x, y []T, base, cnt int) (m uint64) {
	if cnt < 64 {
		for i, v := range x[base : base+cnt] {
			m |= b2u(v <= y[base+i]) << uint(i)
		}
		return m
	}
	p, q := x[base:base+64:base+64], y[base:base+64:base+64]
	for s := 0; s < 64; s += 8 {
		a, b := p[s:s+8:s+8], q[s:s+8:s+8]
		m |= (b2u(a[0] <= b[0]) | b2u(a[1] <= b[1])<<1 | b2u(a[2] <= b[2])<<2 | b2u(a[3] <= b[3])<<3 |
			b2u(a[4] <= b[4])<<4 | b2u(a[5] <= b[5])<<5 | b2u(a[6] <= b[6])<<6 | b2u(a[7] <= b[7])<<7) << uint(s)
	}
	return m
}

// The packed kernels (packed.go) evaluate one delta-space comparison over
// a full 64-lane block: the w words of 64/w lanes of width w, with hh the
// high bit of every lane, mm = ^hh the low w-1 bits, and pat the
// comparison delta broadcast into every lane (its low w-1 bits for Lt).
// Per word they mark the lanes that miss (x != pat for Eq, x >= pat for
// Lt) in each lane's high bit and gather those bits dense; the caller
// complements. Partial blocks take packedPred's per-lane path.
type packedMaskFunc func(ws []uint64, pat, mm, hh uint64) uint64

// packedLaneHigh holds hh, indexed by log2 of the lane width.
var packedLaneHigh = [7]uint64{
	0xffffffffffffffff, // w=1
	0xaaaaaaaaaaaaaaaa, // w=2
	0x8888888888888888, // w=4
	0x8080808080808080, // w=8
	0x8000800080008000, // w=16
	0x8000000080000000, // w=32
	0x8000000000000000, // w=64
}

// The kernels indexed by comparison and log2 of the lane width. Lt comes
// in two forms: the broadcast pat's lanes share one high bit p_h, and
// fixing it makes the per-word test cheaper.
const (
	packedKindEq = iota
	packedKindLtLow
	packedKindLtHigh
)

var packedKernels = [3][7]packedMaskFunc{
	{packedEqW1, packedEqW2, packedEqW4, packedEqW8, packedEqW16, packedEqW32, packedEqW64},
	{packedLtLowW1, packedLtLowW2, packedLtLowW4, packedLtLowW8, packedLtLowW16, packedLtLowW32, packedLtLowW64},
	{packedLtHighW1, packedLtHighW2, packedLtHighW4, packedLtHighW8, packedLtHighW16, packedLtHighW32, packedLtHighW64},
}

// The per-word miss tests. Eq: y = x^pat is nonzero in a lane iff
// ((y&mm)+mm)|y has its high bit set. Lt: for d = (x|hh) - pat, d_h says
// the lane's low bits are >= pat's, and x >= pat iff maj(x_h, ¬p_h, d_h):
// x_h|d_h when p_h = 0 (Low), x_h&d_h when p_h = 1 (High).
func packedMissEq(x, pat, mm, hh uint64) uint64 {
	y := x ^ pat
	return ((y & mm) + mm | y) & hh
}

func packedMissLtLow(x, pat, hh uint64) uint64 { return (x | ((x | hh) - pat)) & hh }

func packedMissLtHigh(x, pat, hh uint64) uint64 { return x & ((x | hh) - pat) & hh }

// The gathers pack the miss bits of one word (lane j at bit (j+1)w-1) into
// its 64/w low bits.

func packedGather2(z uint64) uint64 {
	e := z >> 1
	e = (e | e>>1) & 0x3333333333333333
	e = (e | e>>2) & 0x0f0f0f0f0f0f0f0f
	e = (e | e>>4) & 0x00ff00ff00ff00ff
	e = (e | e>>8) & 0x0000ffff0000ffff
	return (e | e>>16) & 0xffffffff
}

func packedGather4(z uint64) uint64 {
	e := z >> 3
	e = (e | e>>3) & 0x0303030303030303
	e = (e | e>>6) & 0x000f000f000f000f
	e = (e | e>>12) & 0x000000ff000000ff
	return (e | e>>24) & 0xffff
}

func packedGather8(z uint64) uint64 { return ((z >> 7) * 0x0102040810204080) >> 56 }

// packedGather16 packs four 16-bit-lane words at once with one multiply:
// word i's lane j sits on bit 16j+4i of t, and the partial products land
// on distinct bits, so nothing carries into bit 48+4i+j.
func packedGather16(z0, z1, z2, z3 uint64) uint64 {
	t := z0>>15 | z1>>11 | z2>>7 | z3>>3
	return (t * 0x0001000200040008) >> 48
}

func packedGather32(z uint64) uint64 { return z>>31&1 | z>>62&2 }

func packedEqW1(ws []uint64, pat, mm, hh uint64) uint64 { return packedMissEq(ws[0], pat, mm, hh) }

func packedEqW2(ws []uint64, pat, mm, hh uint64) uint64 {
	return packedGather2(packedMissEq(ws[1], pat, mm, hh))<<32 | packedGather2(packedMissEq(ws[0], pat, mm, hh))
}

func packedEqW4(ws []uint64, pat, mm, hh uint64) uint64 {
	return packedGather4(packedMissEq(ws[3], pat, mm, hh))<<48 | packedGather4(packedMissEq(ws[2], pat, mm, hh))<<32 |
		packedGather4(packedMissEq(ws[1], pat, mm, hh))<<16 | packedGather4(packedMissEq(ws[0], pat, mm, hh))
}

func packedEqW8(ws []uint64, pat, mm, hh uint64) (m uint64) {
	for k, x := range ws[:8:8] {
		m |= packedGather8(packedMissEq(x, pat, mm, hh)) << uint(8*k)
	}
	return m
}

func packedEqW16(ws []uint64, pat, mm, hh uint64) uint64 {
	q := ws[:16:16]
	m := packedGather16(packedMissEq(q[0], pat, mm, hh), packedMissEq(q[1], pat, mm, hh),
		packedMissEq(q[2], pat, mm, hh), packedMissEq(q[3], pat, mm, hh))
	m |= packedGather16(packedMissEq(q[4], pat, mm, hh), packedMissEq(q[5], pat, mm, hh),
		packedMissEq(q[6], pat, mm, hh), packedMissEq(q[7], pat, mm, hh)) << 16
	m |= packedGather16(packedMissEq(q[8], pat, mm, hh), packedMissEq(q[9], pat, mm, hh),
		packedMissEq(q[10], pat, mm, hh), packedMissEq(q[11], pat, mm, hh)) << 32
	return m | packedGather16(packedMissEq(q[12], pat, mm, hh), packedMissEq(q[13], pat, mm, hh),
		packedMissEq(q[14], pat, mm, hh), packedMissEq(q[15], pat, mm, hh))<<48
}

func packedEqW32(ws []uint64, pat, mm, hh uint64) (m uint64) {
	for k, x := range ws[:32:32] {
		m |= packedGather32(packedMissEq(x, pat, mm, hh)) << uint(2*k)
	}
	return m
}

func packedEqW64(ws []uint64, pat, mm, hh uint64) (m uint64) {
	for k, x := range ws[:64:64] {
		m |= packedMissEq(x, pat, mm, hh) >> 63 << uint(k)
	}
	return m
}

func packedLtLowW1(ws []uint64, pat, _, hh uint64) uint64 { return packedMissLtLow(ws[0], pat, hh) }

func packedLtLowW2(ws []uint64, pat, _, hh uint64) uint64 {
	return packedGather2(packedMissLtLow(ws[1], pat, hh))<<32 | packedGather2(packedMissLtLow(ws[0], pat, hh))
}

func packedLtLowW4(ws []uint64, pat, _, hh uint64) uint64 {
	return packedGather4(packedMissLtLow(ws[3], pat, hh))<<48 | packedGather4(packedMissLtLow(ws[2], pat, hh))<<32 |
		packedGather4(packedMissLtLow(ws[1], pat, hh))<<16 | packedGather4(packedMissLtLow(ws[0], pat, hh))
}

func packedLtLowW8(ws []uint64, pat, _, hh uint64) (m uint64) {
	for k, x := range ws[:8:8] {
		m |= packedGather8(packedMissLtLow(x, pat, hh)) << uint(8*k)
	}
	return m
}

func packedLtLowW16(ws []uint64, pat, _, hh uint64) uint64 {
	q := ws[:16:16]
	m := packedGather16(packedMissLtLow(q[0], pat, hh), packedMissLtLow(q[1], pat, hh),
		packedMissLtLow(q[2], pat, hh), packedMissLtLow(q[3], pat, hh))
	m |= packedGather16(packedMissLtLow(q[4], pat, hh), packedMissLtLow(q[5], pat, hh),
		packedMissLtLow(q[6], pat, hh), packedMissLtLow(q[7], pat, hh)) << 16
	m |= packedGather16(packedMissLtLow(q[8], pat, hh), packedMissLtLow(q[9], pat, hh),
		packedMissLtLow(q[10], pat, hh), packedMissLtLow(q[11], pat, hh)) << 32
	return m | packedGather16(packedMissLtLow(q[12], pat, hh), packedMissLtLow(q[13], pat, hh),
		packedMissLtLow(q[14], pat, hh), packedMissLtLow(q[15], pat, hh))<<48
}

func packedLtLowW32(ws []uint64, pat, _, hh uint64) (m uint64) {
	for k, x := range ws[:32:32] {
		m |= packedGather32(packedMissLtLow(x, pat, hh)) << uint(2*k)
	}
	return m
}

func packedLtLowW64(ws []uint64, pat, _, hh uint64) (m uint64) {
	for k, x := range ws[:64:64] {
		m |= packedMissLtLow(x, pat, hh) >> 63 << uint(k)
	}
	return m
}

func packedLtHighW1(ws []uint64, pat, _, hh uint64) uint64 { return packedMissLtHigh(ws[0], pat, hh) }

func packedLtHighW2(ws []uint64, pat, _, hh uint64) uint64 {
	return packedGather2(packedMissLtHigh(ws[1], pat, hh))<<32 | packedGather2(packedMissLtHigh(ws[0], pat, hh))
}

func packedLtHighW4(ws []uint64, pat, _, hh uint64) uint64 {
	return packedGather4(packedMissLtHigh(ws[3], pat, hh))<<48 | packedGather4(packedMissLtHigh(ws[2], pat, hh))<<32 |
		packedGather4(packedMissLtHigh(ws[1], pat, hh))<<16 | packedGather4(packedMissLtHigh(ws[0], pat, hh))
}

func packedLtHighW8(ws []uint64, pat, _, hh uint64) (m uint64) {
	for k, x := range ws[:8:8] {
		m |= packedGather8(packedMissLtHigh(x, pat, hh)) << uint(8*k)
	}
	return m
}

func packedLtHighW16(ws []uint64, pat, _, hh uint64) uint64 {
	q := ws[:16:16]
	m := packedGather16(packedMissLtHigh(q[0], pat, hh), packedMissLtHigh(q[1], pat, hh),
		packedMissLtHigh(q[2], pat, hh), packedMissLtHigh(q[3], pat, hh))
	m |= packedGather16(packedMissLtHigh(q[4], pat, hh), packedMissLtHigh(q[5], pat, hh),
		packedMissLtHigh(q[6], pat, hh), packedMissLtHigh(q[7], pat, hh)) << 16
	m |= packedGather16(packedMissLtHigh(q[8], pat, hh), packedMissLtHigh(q[9], pat, hh),
		packedMissLtHigh(q[10], pat, hh), packedMissLtHigh(q[11], pat, hh)) << 32
	return m | packedGather16(packedMissLtHigh(q[12], pat, hh), packedMissLtHigh(q[13], pat, hh),
		packedMissLtHigh(q[14], pat, hh), packedMissLtHigh(q[15], pat, hh))<<48
}

func packedLtHighW32(ws []uint64, pat, _, hh uint64) (m uint64) {
	for k, x := range ws[:32:32] {
		m |= packedGather32(packedMissLtHigh(x, pat, hh)) << uint(2*k)
	}
	return m
}

func packedLtHighW64(ws []uint64, pat, _, hh uint64) (m uint64) {
	for k, x := range ws[:64:64] {
		m |= packedMissLtHigh(x, pat, hh) >> 63 << uint(k)
	}
	return m
}
