// Command gen emits native_kernels_gen.go: the type×comparator-specialized
// SWAR scan kernels used by the native (non-simulated) execution path.
//
// Run from internal/scan via `go generate ./internal/scan` (or directly:
// `go run ./gen`). The output is checked in so builds never depend on the
// generator running; gen_test.go fails when it drifts from render().
//
// Three block-mask families are generated, each returning the match
// bitmap of up to 64 rows (bit i = row base+i):
//
//   - nativeMask<T><Op>(data, base, cnt, needle): "column op literal" over
//     a typed column slice, one function per (type, comparator);
//   - nativeMaskCol<T><Op>(a, b, base, cnt): "a[i] op b[i]" over two
//     row-aligned column slices;
//   - packedEqW<w>/packedLtW<w>(words, cnt, pat): delta == pat and
//     unsigned delta < pat over bit-packed frame-of-reference words
//     (internal/column/packed.go) at lane width w, without decoding; pat
//     is the delta broadcast into every lane, and Ne/Le/Gt/Ge derive from
//     these at the call site (complement, pat+1).
//
// All are branch-free. A full block (cnt == 64) reslices its input once
// and then runs at constant offsets and bit positions: eight rows per step
// turned into bits by b2u (eight 1-byte lanes per word via vec.EqByteMask
// for 1-byte Eq/Ne), or whole packed words (see the packedMiss helpers in
// the output for the per-lane SWAR compare). A tail block (cnt < 64) runs
// a plain loop. The native kernel ANDs every predicate's full mask into
// its chain mask (native.go); there is no per-survivor refine kernel.
//
// Comparison semantics are bit-identical to expr.CompareBits: needles
// arrive as stored bits (column.StoredBits), loads reinterpret the column
// bytes as the static Go type, and Go's native comparison operators on
// those types agree with CompareBits for every case incl. NaN (all
// comparisons false except Ne) and sign extension.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

type typeInfo struct {
	Enum string // expr.<Enum>
	Name string // function-name fragment
	Size int
	Load string // expression loading one row from %s: a byte (Size 1) or the slice starting at the row
	Conv string // expression converting the raw needle to Go
	IsB  bool   // 1-byte type (SWAR fast path for Eq/Ne)
}

var types = []typeInfo{
	{Enum: "expr.Int8", Name: "Int8", Size: 1, Load: "int8(%s)", Conv: "int8(uint8(needle))", IsB: true},
	{Enum: "expr.Int16", Name: "Int16", Size: 2, Load: "int16(binary.LittleEndian.Uint16(%s))", Conv: "int16(uint16(needle))"},
	{Enum: "expr.Int32", Name: "Int32", Size: 4, Load: "int32(binary.LittleEndian.Uint32(%s))", Conv: "int32(uint32(needle))"},
	{Enum: "expr.Int64", Name: "Int64", Size: 8, Load: "int64(binary.LittleEndian.Uint64(%s))", Conv: "int64(needle)"},
	{Enum: "expr.Uint8", Name: "Uint8", Size: 1, Load: "%s", Conv: "uint8(needle)", IsB: true},
	{Enum: "expr.Uint16", Name: "Uint16", Size: 2, Load: "binary.LittleEndian.Uint16(%s)", Conv: "uint16(needle)"},
	{Enum: "expr.Uint32", Name: "Uint32", Size: 4, Load: "binary.LittleEndian.Uint32(%s)", Conv: "uint32(needle)"},
	{Enum: "expr.Uint64", Name: "Uint64", Size: 8, Load: "binary.LittleEndian.Uint64(%s)", Conv: "needle"},
	{Enum: "expr.Float32", Name: "Float32", Size: 4,
		Load: "math.Float32frombits(binary.LittleEndian.Uint32(%s))", Conv: "math.Float32frombits(uint32(needle))"},
	{Enum: "expr.Float64", Name: "Float64", Size: 8,
		Load: "math.Float64frombits(binary.LittleEndian.Uint64(%s))", Conv: "math.Float64frombits(needle)"},
}

// load renders the load of the row at byte offset off of slice s.
func (t typeInfo) load(s, off string) string {
	if t.Size == 1 {
		return fmt.Sprintf(t.Load, s+"["+off+"]")
	}
	return fmt.Sprintf(t.Load, s+"["+off+":]")
}

// scaled renders "x*Size", or x itself for 1-byte types.
func (t typeInfo) scaled(x string) string {
	if t.Size == 1 {
		return x
	}
	return fmt.Sprintf("%s*%d", x, t.Size)
}

type opInfo struct {
	Enum string // expr.<Enum>
	Name string
	Sym  string
}

var ops = []opInfo{
	{Enum: "expr.Eq", Name: "Eq", Sym: "=="},
	{Enum: "expr.Ne", Name: "Ne", Sym: "!="},
	{Enum: "expr.Lt", Name: "Lt", Sym: "<"},
	{Enum: "expr.Le", Name: "Le", Sym: "<="},
	{Enum: "expr.Gt", Name: "Gt", Sym: ">"},
	{Enum: "expr.Ge", Name: "Ge", Sym: ">="},
}

// packedWidths are the allowed packed lane widths — divisors of 64, so
// lanes never straddle words (column.ValidPackedWidth).
var packedWidths = []int{1, 2, 4, 8, 16, 32, 64}

// packedConsts derives the per-width SWAR constants: B has bit i*w set
// for every lane i (the broadcast multiplier), H = B << (w-1) is the
// per-lane high bit, M = B * (2^(w-1) - 1) is the per-lane low w-1 bits.
func packedConsts(w int) (B, M, H uint64) {
	for i := 0; i < 64; i += w {
		B |= 1 << uint(i)
	}
	H = B << uint(w-1)
	M = ^H & (B * ((1 << uint(w)) - 1))
	if w == 1 {
		M = 0
	}
	return
}

// packedExtract emits the lines compressing the high-bit-per-lane mask z
// into a dense per-lane bitmap e for width w. Each fold halves the
// stride, masking garbage copies between steps; w=8 and w=16 gather with
// one multiply (the partial products land on distinct bits, so nothing
// carries into the gathered ones).
func packedExtract(w int) []string {
	switch w {
	case 1:
		return []string{"e := z"}
	case 2:
		return []string{
			"e := z >> 1",
			"e = (e | e>>1) & 0x3333333333333333",
			"e = (e | e>>2) & 0x0f0f0f0f0f0f0f0f",
			"e = (e | e>>4) & 0x00ff00ff00ff00ff",
			"e = (e | e>>8) & 0x0000ffff0000ffff",
			"e = (e | e>>16) & 0xffffffff",
		}
	case 4:
		return []string{
			"e := z >> 3",
			"e = (e | e>>3) & 0x0303030303030303",
			"e = (e | e>>6) & 0x000f000f000f000f",
			"e = (e | e>>12) & 0x000000ff000000ff",
			"e = (e | e>>24) & 0xffff",
		}
	case 8:
		return []string{"e := ((z >> 7) * 0x0102040810204080) >> 56"}
	case 16:
		return []string{"e := ((z >> 15) * 0x0001000200040008) >> 48"}
	case 32:
		return []string{"e := ((z >> 31) & 1) | ((z >> 62) & 2)"}
	case 64:
		return []string{"e := z >> 63"}
	}
	panic("unreachable")
}

// gen accumulates the generated source.
type gen struct{ bytes.Buffer }

func (g *gen) p(format string, args ...any) { fmt.Fprintf(&g.Buffer, format, args...) }

// mask emits one block-mask kernel: nativeMask<T><Op> over a column and a
// needle, or nativeMaskCol<T><Op> over two row-aligned columns.
func (g *gen) mask(t typeInfo, o opInfo, col bool) {
	name, params, slices := "nativeMask", "data []byte, base, cnt int, needle uint64", [][2]string{{"d", "data"}}
	if col {
		name, params, slices = "nativeMaskCol", "a, b []byte, base, cnt int", [][2]string{{"da", "a"}, {"db", "b"}}
	}
	// cmp renders the compare of the row at byte offset off of the slices
	// named d (or da and db) with the prefix d replaced by pre.
	cmp := func(pre, off string) string {
		if col {
			return fmt.Sprintf("%s %s %s", t.load(pre+"a", off), o.Sym, t.load(pre+"b", off))
		}
		return fmt.Sprintf("%s %s n", t.load(pre, off), o.Sym)
	}

	g.p("\nfunc %s%s%s(%s) uint64 {\n", name, t.Name, o.Name, params)
	if !col {
		g.p("\tn := %s\n", t.Conv)
	}
	g.p("\tvar m uint64\n")
	g.p("\tif cnt == 64 {\n")
	for _, s := range slices {
		g.p("\t\t%s := %s[%s : %s+%d]\n", s[0], s[1], t.scaled("base"), t.scaled("base"), 64*t.Size)
	}
	if t.IsB && (o.Name == "Eq" || o.Name == "Ne") {
		neg, pat := "", "pat"
		if o.Name == "Ne" {
			neg = "^"
		}
		if col {
			pat = "binary.LittleEndian.Uint64(db[w:])"
		} else {
			g.p("\t\tpat := vec.BroadcastByte(byte(needle))\n")
		}
		g.p("\t\tfor w := 0; w < 64; w += 8 {\n")
		g.p("\t\t\tm |= uint64(%svec.EqByteMask(binary.LittleEndian.Uint64(%s[w:]), %s)) << uint(w)\n", neg, slices[0][0], pat)
	} else {
		g.p("\t\tfor s := 0; s < 64; s += 8 {\n")
		for _, s := range slices {
			g.p("\t\t\tq%s := %s[%s : %s+%d : %s+%d]\n", s[0][1:], s[0], t.scaled("s"), t.scaled("s"), 8*t.Size, t.scaled("s"), 8*t.Size)
		}
		var terms []string
		for j := 0; j < 8; j++ {
			term := fmt.Sprintf("b2u(%s)", cmp("q", fmt.Sprint(j*t.Size)))
			if j > 0 {
				term += fmt.Sprintf("<<%d", j)
			}
			terms = append(terms, term)
		}
		g.p("\t\t\tm |= (%s |\n%s) << uint(s)\n", strings.Join(terms[:4], " | "), strings.Join(terms[4:], " | "))
	}
	g.p("\t\t}\n")
	g.p("\t\treturn m\n")
	g.p("\t}\n")
	for _, s := range slices {
		g.p("\t%s := %s[%s:]\n", s[0], s[1], t.scaled("base"))
	}
	g.p("\tfor i := 0; i < cnt; i++ {\n")
	g.p("\t\tm |= b2u(%s) << uint(i)\n", cmp("d", t.scaled("i")))
	g.p("\t}\n")
	g.p("\treturn m\n")
	g.p("}\n")
}

// packed emits the Eq/Lt block kernels for lane width w (lg = log2 w).
// They load the lane masks from packedLaneMasks rather than using
// constants, so the compiler keeps them in registers instead of
// rematerialising a 64-bit immediate per use.
func (g *gen) packed(lg, w int) {
	L := 64 / w
	// full emits the full-block loop with per-word miss helper zf.
	full := func(zf, args string) {
		if w == 16 {
			// Unrolled: four words per packedGather16.
			for k := 0; k < 16; k += 4 {
				var zs []string
				for i := k; i < k+4; i++ {
					zs = append(zs, fmt.Sprintf("%s(ws[%d], %s)", zf, i, args))
				}
				shift := ""
				if k > 0 {
					shift = fmt.Sprintf(" << %d", 4*k)
				}
				g.p("\t\tm |= packedGather16(%s)%s\n", strings.Join(zs, ", "), shift)
			}
			return
		}
		g.p("\t\tfor k := 0; k < %d; k++ {\n", w)
		g.p("\t\t\tz := %s(ws[k], %s)\n", zf, args)
		for _, line := range packedExtract(w) {
			g.p("\t\t\t%s\n", line)
		}
		g.p("\t\t\tm |= e << uint(k*%d)\n", L)
		g.p("\t\t}\n")
	}
	for _, name := range []string{"Eq", "Lt"} {
		zf, args := "packedMissEq", "pat, mm, hh"
		g.p("\nfunc packed%sW%d(words []uint64, cnt int, pat uint64) uint64 {\n", name, w)
		g.p("\tmm, hh := packedLaneMasks[%d][0], packedLaneMasks[%d][1]\n", lg, lg)
		if name == "Lt" {
			zf, args = "packedMissLt", "pm, np, hh"
			g.p("\tpm, np := pat&mm, ^pat\n")
		}
		g.p("\tvar m uint64\n")
		if w > 1 {
			g.p("\tif cnt == 64 {\n")
			g.p("\t\tws := words[:%d:%d]\n", w, w)
			if name == "Eq" {
				full(zf, args)
			} else {
				// pat's lanes share one high bit, which settles the
				// majority: one loop per value.
				g.p("\t\tif pat&hh == 0 {\n")
				full("packedMissLtLow", "pm, hh")
				g.p("\t\t} else {\n")
				full("packedMissLtHigh", "pm, hh")
				g.p("\t\t}\n")
			}
			g.p("\t\treturn ^m\n")
			g.p("\t}\n")
		}
		g.p("\tfor k := 0; cnt > 0; k, cnt = k+1, cnt-%d {\n", L)
		g.p("\t\tz := %s(words[k], %s)\n", zf, args)
		for _, line := range packedExtract(w) {
			g.p("\t\t%s\n", line)
		}
		g.p("\t\tm |= e << uint(k*%d)\n", L)
		g.p("\t}\n")
		g.p("\treturn ^m\n")
		g.p("}\n")
	}
}

// render returns the formatted source of native_kernels_gen.go.
func render() ([]byte, error) {
	var g gen
	p := g.p

	p("// Code generated by go run ./gen. DO NOT EDIT.\n\n")
	p("package scan\n\n")
	p("import (\n")
	p("\t\"encoding/binary\"\n")
	p("\t\"math\"\n\n")
	p("\t\"fusedscan/internal/expr\"\n")
	p("\t\"fusedscan/internal/vec\"\n")
	p(")\n\n")
	p("// nativeMaskFunc evaluates one compare predicate over rows\n")
	p("// [base, base+cnt) (cnt <= 64) of a column's raw bytes and returns the\n")
	p("// match bitmap; needle holds the search value's stored bits.\n")
	p("type nativeMaskFunc func(data []byte, base, cnt int, needle uint64) uint64\n\n")
	p("// nativeMaskColFunc is the column-vs-column counterpart of\n")
	p("// nativeMaskFunc: it evaluates \"a[i] op b[i]\" over rows\n")
	p("// [base, base+cnt) (cnt <= 64) of two row-aligned typed column byte\n")
	p("// slices and returns the match bitmap — the residual-join-predicate\n")
	p("// comparator family.\n")
	p("type nativeMaskColFunc func(a, b []byte, base, cnt int) uint64\n\n")
	p("var (\n")
	p("\tnativeMaskFuncs    [expr.NumTypes][expr.NumCmpOps]nativeMaskFunc\n")
	p("\tnativeMaskColFuncs [expr.NumTypes][expr.NumCmpOps]nativeMaskColFunc\n")
	p(")\n\n")
	p("func init() {\n")
	for _, t := range types {
		for _, o := range ops {
			p("\tnativeMaskFuncs[%s][%s] = nativeMask%s%s\n", t.Enum, o.Enum, t.Name, o.Name)
		}
	}
	for _, t := range types {
		for _, o := range ops {
			p("\tnativeMaskColFuncs[%s][%s] = nativeMaskCol%s%s\n", t.Enum, o.Enum, t.Name, o.Name)
		}
	}
	p("}\n\n")
	p("// b2u turns a comparison result into a 0/1 word; the compiler lowers it\n")
	p("// to SETcc, so the block kernels carry no data-dependent branch.\n")
	p("func b2u(b bool) uint64 {\n")
	p("\tif b {\n")
	p("\t\treturn 1\n")
	p("\t}\n")
	p("\treturn 0\n")
	p("}\n")

	for _, col := range []bool{false, true} {
		for _, t := range types {
			for _, o := range ops {
				g.mask(t, o, col)
			}
		}
	}

	// Packed SWAR primitives: one Eq/Lt pair per lane width, operating on
	// bit-packed delta words without decoding (see the package comment).
	p("\n// packedMaskFunc evaluates one delta-space comparison over the first\n")
	p("// cnt lanes (cnt <= 64) of packed words and returns the dense match\n")
	p("// bitmap (bit i = lane i); bits past cnt are unspecified. pat is the\n")
	p("// comparison delta broadcast into every lane (delta *\n")
	p("// packedLaneMul[log2 w]).\n")
	p("type packedMaskFunc func(words []uint64, cnt int, pat uint64) uint64\n\n")
	p("// Dispatch tables indexed by log2 of the lane width (0..6).\n")
	p("var (\n")
	p("\tpackedEqFuncs [7]packedMaskFunc\n")
	p("\tpackedLtFuncs [7]packedMaskFunc\n")
	p(")\n\n")
	p("// packedLaneMul broadcasts a delta into every lane of a word, indexed\n")
	p("// by log2 of the lane width.\n")
	p("var packedLaneMul = [7]uint64{\n")
	for lg, w := range packedWidths {
		B, _, _ := packedConsts(w)
		p("\t%d: 0x%016x, // w=%d\n", lg, B, w)
	}
	p("}\n\n")
	p("// packedLaneMasks holds, per log2 lane width, the low w-1 bits (M)\n")
	p("// and the high bit (H) of every lane.\n")
	p("var packedLaneMasks = [7][2]uint64{\n")
	for lg, w := range packedWidths {
		_, M, H := packedConsts(w)
		p("\t%d: {0x%016x, 0x%016x}, // w=%d\n", lg, M, H, w)
	}
	p("}\n\n")
	p("func init() {\n")
	for lg, w := range packedWidths {
		p("\tpackedEqFuncs[%d] = packedEqW%d\n", lg, w)
		p("\tpackedLtFuncs[%d] = packedLtW%d\n", lg, w)
	}
	p("}\n\n")
	p("// The per-word miss helpers return the high bit of every lane of x set\n")
	p("// iff the lane does NOT match (mm, hh: the lane masks); the kernels\n")
	p("// gather the misses and complement once. Eq: y = x^pat is nonzero in a\n")
	p("// lane iff ((y&M)+M)|y has its high bit set. Lt: for d = (x|H) -\n")
	p("// (pat&M), d_h says the lane's low bits are >= pat's, and x >= pat iff\n")
	p("// maj(x_h, ¬p_h, d_h): differing high bits decide alone, equal ones\n")
	p("// defer to d_h. packedMissLt takes np = ¬pat; the Low/High forms fix\n")
	p("// p_h, which all lanes of a broadcast pat share.\n")
	p("func packedMissEq(x, pat, mm, hh uint64) uint64 {\n")
	p("\ty := x ^ pat\n")
	p("\treturn ((y&mm)+mm | y) & hh\n")
	p("}\n\n")
	p("func packedMissLt(x, pm, np, hh uint64) uint64 {\n")
	p("\td := (x | hh) - pm\n")
	p("\treturn (x&np | d&(x|np)) & hh\n")
	p("}\n\n")
	p("// packedGather16 packs the high lane bits of four 16-bit-lane words into 16\n")
	p("// dense bits with one multiply: word i's lane j sits on bit 16j+4i of t,\n")
	p("// and the partial products land on distinct bits, so nothing carries\n")
	p("// into bit 48+4i+j.\n")
	p("func packedGather16(z0, z1, z2, z3 uint64) uint64 {\n")
	p("\tt := z0>>15 | z1>>11 | z2>>7 | z3>>3\n")
	p("\treturn (t * 0x0001000200040008) >> 48\n")
	p("}\n\n")
	p("func packedMissLtLow(x, pm, hh uint64) uint64 { return (x | ((x | hh) - pm)) & hh }\n\n")
	p("func packedMissLtHigh(x, pm, hh uint64) uint64 { return x & ((x | hh) - pm) & hh }\n")
	for lg, w := range packedWidths {
		g.packed(lg, w)
	}

	src, err := format.Source(g.Bytes())
	if err != nil {
		return nil, fmt.Errorf("formatting generated source: %w", err)
	}
	return src, nil
}

func main() {
	src, err := render()
	if err != nil {
		log.Fatalf("gen: %v", err)
	}
	if err := os.WriteFile("native_kernels_gen.go", src, 0o644); err != nil {
		log.Fatalf("gen: %v", err)
	}
}
