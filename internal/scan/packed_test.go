package scan

import (
	"fmt"
	"math/rand"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/vec"
)

// intTypes are the packable types.
func intTypes() []expr.Type {
	var ts []expr.Type
	for _, t := range expr.AllTypes() {
		if t.Integer() {
			ts = append(ts, t)
		}
	}
	return ts
}

// keyMask returns the key-space mask of a type (2^(8*size) - 1).
func keyMask(t expr.Type) uint64 {
	if t.Size() == 8 {
		return ^uint64(0)
	}
	return 1<<uint(8*t.Size()) - 1
}

// valueFromKey converts an order-space key into a typed literal.
func valueFromKey(t expr.Type, key uint64) expr.Value {
	raw := column.KeyToRaw(t, key)
	if t.Signed() {
		shift := uint(64 - 8*t.Size())
		return expr.NewInt(t, int64(raw<<shift)>>shift)
	}
	return expr.NewUint(t, raw)
}

// TestPackedKernels checks every packed block kernel, at every lane width,
// against the per-lane comparison: random full-block words, with deltas
// salted to equal the pattern, for patterns at the edges of the lane's
// range and of its high bit (the Lt kernels' Low/High split), through the
// kernel dispatch of all four resolved comparisons. Column-level fuzzing
// rarely packs a whole block at the narrow widths; this covers them all.
func TestPackedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for lg := 0; lg <= 6; lg++ {
		w := 1 << lg
		top := ^uint64(0) >> uint(64-w) // the lane's largest delta
		half := top/2 + 1               // 2^(w-1)
		pats := []uint64{0, 1, half - 1, half, half + 1, top - 1, top}
		for trial := 0; trial < 50; trial++ {
			pats = append(pats, rng.Uint64()&top)
		}
		ch := &column.PackedChunk{Bits: uint8(w), Words: make([]uint64, w)}
		for _, pat := range pats {
			if pat > top {
				continue // w=1: half+1 does not fit the lane
			}
			for i := range ch.Words {
				ch.Words[i] = rng.Uint64()
			}
			for lane := 0; lane < 64; lane++ {
				if rng.Intn(4) == 0 { // plant matches and both neighbours
					d := min(top, max(pat, 1)-1+uint64(rng.Intn(3)))
					word, shift := lane*w/64, uint(lane*w%64)
					ch.Words[word] = ch.Words[word]&^(top<<shift) | d<<shift
				}
			}
			for _, mode := range []packedMode{packEq, packNe, packLt, packGe} {
				e := &packedPred{mode: mode, pat: pat}
				if (mode == packLt || mode == packGe) && pat == 0 {
					continue // resolve never asks for delta < 0
				}
				f, p, mm, hh, inv := e.kernel(lg)
				got := f(ch.Words, p, mm, hh) ^ inv
				for lane := 0; lane < 64; lane++ {
					if want := e.matchDelta(ch.Delta(lane)); got>>uint(lane)&1 == 1 != want {
						t.Fatalf("w=%d mode=%d pat=%#x lane %d (delta %#x): got %t, want %t",
							w, mode, pat, lane, ch.Delta(lane), !want, want)
					}
				}
			}
		}
	}
}

// packableColumn builds a column whose keys live in [base, base+2^wbits),
// salted with domain extremes, so packing picks interesting widths and
// frame references (including FoR overflow edges near the type bounds).
func packableColumn(rng *rand.Rand, space *mach.AddrSpace, name string, t expr.Type, n int) *column.Column {
	c := column.New(space, name, t, n)
	tm := keyMask(t)
	wbits := rng.Intn(8*t.Size() + 1)
	var wmask uint64
	if wbits == 64 {
		wmask = ^uint64(0)
	} else {
		wmask = 1<<uint(wbits) - 1
	}
	base := rng.Uint64() & tm
	if base > tm-wmask {
		base = tm - wmask
	}
	for i := 0; i < n; i++ {
		key := base + rng.Uint64()&wmask
		switch rng.Intn(200) {
		case 0:
			key = 0
		case 1:
			key = tm
		}
		c.SetRaw(i, column.KeyToRaw(t, key))
	}
	return c
}

// packedNeedle picks a literal that lands inside, on the edge of, or
// outside the column's key domain — exercising the delta-space rewrite's
// eq/lt paths and the always-true/always-false collapses.
func packedNeedle(rng *rand.Rand, t expr.Type, c *column.Column) expr.Value {
	tm := keyMask(t)
	switch rng.Intn(6) {
	case 0:
		return valueFromKey(t, 0)
	case 1:
		return valueFromKey(t, tm)
	case 2, 3:
		// An actual row value (exact-hit paths).
		i := rng.Intn(c.Len())
		return valueFromKey(t, column.RawToKey(t, c.Raw(i)))
	default:
		// Near an actual row value (edge-of-domain paths).
		i := rng.Intn(c.Len())
		key := column.RawToKey(t, c.Raw(i)) + uint64(rng.Intn(7)) - 3
		return valueFromKey(t, key&tm)
	}
}

// TestPackedDifferential fuzzes predicate chains over bit-packed columns
// through the packed-capable kernels (Native SWAR, emulated Fused in both
// dialects, SISD) and checks count and positions bit-identical to the
// scalar reference over the *unpacked* column — the storage-format-v3
// correctness contract. Covers all int types, bit widths 1-64, NULLs,
// chunk boundaries, FoR overflow edges and misaligned views; Native also
// scans chunk-aligned, mid-word and chunk-straddling windows.
func TestPackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	types := intTypes()
	ops := expr.AllCmpOps()

	for trial := 0; trial < trials; trial++ {
		// Bias toward small inputs, but cross the 64K packed-chunk
		// boundary in a meaningful fraction of trials.
		var n int
		switch rng.Intn(4) {
		case 0:
			n = column.PackChunkRows + 1 + rng.Intn(column.PackChunkRows+100)
		default:
			n = 1 + rng.Intn(5000)
		}
		space := mach.NewAddrSpace()
		k := 1 + rng.Intn(3)
		var plainCh, packedCh Chain
		for j := 0; j < k; j++ {
			typ := types[rng.Intn(len(types))]
			plain := packableColumn(rng, space, fmt.Sprintf("c%d", j), typ, n)
			if rng.Intn(3) == 0 {
				for i := 0; i < n; i++ {
					if rng.Intn(10) == 0 {
						plain.SetNull(i)
					}
				}
			}
			// First predicate always scans packed storage; later ones mix
			// packed and plain columns.
			col := plain
			if j == 0 || rng.Intn(2) == 0 {
				var err error
				col, err = column.Pack(plain)
				if err != nil {
					t.Fatalf("trial %d: pack: %v", trial, err)
				}
			}
			switch rng.Intn(8) {
			case 0:
				kind := expr.PredIsNull
				if rng.Intn(2) == 0 {
					kind = expr.PredIsNotNull
				}
				plainCh = append(plainCh, Pred{Col: plain, Kind: kind})
				packedCh = append(packedCh, Pred{Col: col, Kind: kind})
			default:
				op := ops[rng.Intn(len(ops))]
				v := packedNeedle(rng, typ, plain)
				plainCh = append(plainCh, Pred{Col: plain, Op: op, Value: v})
				packedCh = append(packedCh, Pred{Col: col, Op: op, Value: v})
			}
		}
		if err := packedCh.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		desc := func() string {
			s := fmt.Sprintf("trial %d n=%d:", trial, n)
			for _, p := range packedCh {
				enc := "plain"
				if p.Col.IsPacked() {
					enc = "packed"
				}
				s += fmt.Sprintf(" [%s %s %s %s]", enc, p.Col.Type(), p.Op, p.Value)
			}
			return s
		}

		nativeWindows(t, rng, desc(), plainCh, packedCh)

		// Optionally scan a view with an (often word-misaligned) offset.
		begin, end := 0, n
		if rng.Intn(2) == 0 {
			begin = rng.Intn(n)
			end = begin + 1 + rng.Intn(n-begin)
			plainCh = plainCh.Slice(begin, end)
			packedCh = packedCh.Slice(begin, end)
		}

		want := Reference(plainCh, true)
		if got := Reference(packedCh, true); !equalResults(got, want) {
			t.Fatalf("%s reference-over-packed: count %d, want %d", desc(), got.Count, want.Count)
		}

		kernels := []struct {
			name  string
			build func(Chain) (Kernel, error)
		}{
			{"native", func(ch Chain) (Kernel, error) { return NewNative(ch) }},
			{"fused512", func(ch Chain) (Kernel, error) { return NewFused(ch, vec.W512, vec.IsaAVX512) }},
			{"fused128-avx2", func(ch Chain) (Kernel, error) { return NewFused(ch, vec.W128, vec.IsaAVX2) }},
			{"sisd", func(ch Chain) (Kernel, error) { return NewSISD(ch) }},
		}
		for _, kr := range kernels {
			kern, err := kr.build(packedCh)
			if err != nil {
				t.Fatalf("%s %s: %v", desc(), kr.name, err)
			}
			got := kern.Run(mach.New(mach.Default()), true)
			if !equalResults(got, want) {
				t.Fatalf("%s %s[%d:%d]: count %d, want %d", desc(), kr.name, begin, end, got.Count, want.Count)
			}
		}

		// Chunked execution across packed-chunk boundaries.
		chunk := 1 + rng.Intn(end-begin+10)
		got, _ := runChunked(t, func(ch Chain) (Kernel, error) { return NewNative(ch) }, packedCh, chunk, nil, true)
		if !equalResults(got, want) {
			t.Fatalf("%s chunked(%d): count %d, want %d", desc(), chunk, got.Count, want.Count)
		}
	}
}

// nativeWindows runs Native over windows of the chain in the shapes its
// packed steps tell apart: packed-chunk-aligned windows (resolved once per
// window), windows starting mid-word (every lane width below 64
// misaligns at an odd row) and windows straddling a packed-chunk boundary
// (both fall back to per-block resolution).
func nativeWindows(t *testing.T, rng *rand.Rand, desc string, plainCh, packedCh Chain) {
	t.Helper()
	n := plainCh.Rows()
	cr := column.PackChunkRows
	windows := [][2]int{{0, min(n, cr)}}
	if n > 1 {
		lo := 1 + 2*rng.Intn(min(n-1, 128)/2+1)
		windows = append(windows, [2]int{min(lo, n-1), n})
	}
	if n > cr {
		windows = append(windows,
			[2]int{cr, min(n, 2*cr)},
			[2]int{cr - 1 - rng.Intn(200), min(n, cr+1+rng.Intn(200))})
	}
	for _, w := range windows {
		want := Reference(plainCh.Slice(w[0], w[1]), true)
		kern, err := NewNative(packedCh.Slice(w[0], w[1]))
		if err != nil {
			t.Fatalf("%s native[%d:%d]: %v", desc, w[0], w[1], err)
		}
		if got := kern.Run(nil, true); !equalResults(got, want) {
			t.Fatalf("%s native[%d:%d]: count %d, want %d", desc, w[0], w[1], got.Count, want.Count)
		}
	}
}

// TestPackedColVsCol checks the scalar fallbacks: a column-vs-column
// predicate with a packed side runs decode-on-the-fly in Native and Fused
// and still matches the plain reference.
func TestPackedColVsCol(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(3000)
		space := mach.NewAddrSpace()
		typ := intTypes()[rng.Intn(len(intTypes()))]
		a := packableColumn(rng, space, "a", typ, n)
		b := column.New(space, "b", typ, n)
		for i := 0; i < n; i++ {
			// Values correlated with a so comparisons are selective.
			b.SetRaw(i, column.KeyToRaw(typ, (column.RawToKey(typ, a.Raw(i))+uint64(rng.Intn(3))-1)&keyMask(typ)))
		}
		if rng.Intn(2) == 0 {
			for i := 0; i < n; i += 7 {
				a.SetNull(i)
			}
		}
		pa, err := column.Pack(a)
		if err != nil {
			t.Fatal(err)
		}
		op := expr.AllCmpOps()[rng.Intn(6)]
		plainCh := Chain{{Col: a, Op: op, Col2: b}}
		packedCh := Chain{{Col: pa, Op: op, Col2: b}}
		want := Reference(plainCh, true)

		nat, err := NewNative(packedCh)
		if err != nil {
			t.Fatal(err)
		}
		if got := nat.Run(nil, true); !equalResults(got, want) {
			t.Fatalf("trial %d native colcol: count %d, want %d", trial, got.Count, want.Count)
		}
		fu, err := NewFused(packedCh, vec.W512, vec.IsaAVX512)
		if err != nil {
			t.Fatal(err)
		}
		if got := fu.Run(mach.New(mach.Default()), true); !equalResults(got, want) {
			t.Fatalf("trial %d fused colcol: count %d, want %d", trial, got.Count, want.Count)
		}
	}
}

// TestPackedBloom checks Bloom prefilters probe decoded keys correctly on
// packed columns in every kernel that supports the form.
func TestPackedBloom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 4000
	space := mach.NewAddrSpace()
	a := packableColumn(rng, space, "a", expr.Int64, n)
	for i := 0; i < n; i += 11 {
		a.SetNull(i)
	}
	bl := NewBloom(expr.Int64, 64)
	for i := 0; i < n; i += 3 {
		bl.Add(a.Raw(i))
	}
	pa, err := column.Pack(a)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(Chain{{Col: a, Bloom: bl}}, true)
	packedCh := Chain{{Col: pa, Bloom: bl}}
	if got := Reference(packedCh, true); !equalResults(got, want) {
		t.Fatalf("reference: count %d, want %d", got.Count, want.Count)
	}
	nat, err := NewNative(packedCh)
	if err != nil {
		t.Fatal(err)
	}
	if got := nat.Run(nil, true); !equalResults(got, want) {
		t.Fatalf("native: count %d, want %d", got.Count, want.Count)
	}
	fu, err := NewFused(packedCh, vec.W512, vec.IsaAVX512)
	if err != nil {
		t.Fatal(err)
	}
	if got := fu.Run(mach.New(mach.Default()), true); !equalResults(got, want) {
		t.Fatalf("fused: count %d, want %d", got.Count, want.Count)
	}
}

// TestPackedRejectedByBaselines: the block-at-a-time baselines read raw
// full-width lanes and must reject packed chains at construction instead
// of panicking on nil data.
func TestPackedRejectedByBaselines(t *testing.T) {
	space := mach.NewAddrSpace()
	a := column.FromInt32s(space, "a", []int32{1, 2, 3, 4})
	pa, err := column.Pack(a)
	if err != nil {
		t.Fatal(err)
	}
	ch := Chain{{Col: pa, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 2)}}
	if _, err := NewAutoVec(ch); err == nil {
		t.Fatal("AutoVec accepted a packed chain")
	}
	if _, err := NewBlockMaterialized(ch, vec.W512); err == nil {
		t.Fatal("BlockMaterialized accepted a packed chain")
	}
	if _, err := NewStrided(ch[0], 8); err == nil {
		t.Fatal("Strided accepted a packed chain")
	}
}
