package scan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/vec"
)

// colColKernels builds every kernel that supports the column-vs-column /
// Bloom predicate family: SISD, the fused emulations at each width/ISA,
// and the native SWAR path.
func colColKernels(t *testing.T, ch Chain) map[string]Kernel {
	t.Helper()
	ks := map[string]Kernel{}
	add := func(name string, k Kernel, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		ks[name] = k
	}
	sisd, err := NewSISD(ch)
	add("sisd", sisd, err)
	for _, cfg := range []struct {
		name string
		w    vec.Width
		isa  vec.ISA
	}{
		{"avx2-128", vec.W128, vec.IsaAVX2},
		{"avx512-128", vec.W128, vec.IsaAVX512},
		{"avx512-256", vec.W256, vec.IsaAVX512},
		{"avx512-512", vec.W512, vec.IsaAVX512},
	} {
		f, err := NewFused(ch, cfg.w, cfg.isa)
		add(cfg.name, f, err)
	}
	nat, err := NewNative(ch)
	add("native", nat, err)
	return ks
}

// TestDifferentialColVsCol fuzzes the column-vs-column comparator family
// (the residual-join-predicate comparators) through SISD, every fused
// width/ISA and the native SWAR kernels, against the scalar reference.
// Columns carry NULLs and NaN/min/max salt (randomColumn), chains mix
// col-vs-col predicates with needle compares and NULL tests, and sizes
// straddle the 64-row block and accumulator boundaries.
func TestDifferentialColVsCol(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	trials := 120
	if testing.Short() {
		trials = 25
	}
	types := expr.AllTypes()
	ops := expr.AllCmpOps()
	boundary := []int{1, 63, 64, 65, 127, 128, 129}

	for trial := 0; trial < trials; trial++ {
		var n int
		if trial < len(boundary) {
			n = boundary[trial]
		} else {
			n = 1 + rng.Intn(3000)
		}
		k := 1 + rng.Intn(4)
		space := mach.NewAddrSpace()
		var ch Chain
		hasColCol := false
		for j := 0; j < k; j++ {
			typ := types[rng.Intn(len(types))]
			col := randomColumn(rng, space, fmt.Sprintf("c%d", j), typ, n)
			if rng.Intn(3) == 0 {
				for i := 0; i < n; i++ {
					if rng.Intn(10) == 0 {
						col.SetNull(i)
					}
				}
			}
			// Half the predicates are col-vs-col (at least one always is);
			// the rest split between needle compares and NULL tests.
			r := rng.Intn(6)
			if j == k-1 && !hasColCol {
				r = 0
			}
			switch r {
			case 0, 1, 2:
				col2 := randomColumn(rng, space, fmt.Sprintf("c%dr", j), typ, n)
				if rng.Intn(3) == 0 {
					for i := 0; i < n; i++ {
						if rng.Intn(10) == 0 {
							col2.SetNull(i)
						}
					}
				}
				ch = append(ch, Pred{Col: col, Op: ops[rng.Intn(len(ops))], Col2: col2})
				hasColCol = true
			case 3:
				kind := expr.PredIsNull
				if rng.Intn(2) == 0 {
					kind = expr.PredIsNotNull
				}
				ch = append(ch, Pred{Col: col, Kind: kind})
			default:
				ch = append(ch, Pred{Col: col, Op: ops[rng.Intn(len(ops))], Value: randomNeedle(rng, typ)})
			}
		}
		if err := ch.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := Reference(ch, true)
		desc := func() string {
			s := fmt.Sprintf("trial %d n=%d:", trial, n)
			for _, p := range ch {
				s += fmt.Sprintf(" [%s]", p)
			}
			return s
		}

		for name, kern := range colColKernels(t, ch) {
			if got := kern.Run(mach.New(mach.Default()), true); !equalResults(got, want) {
				t.Fatalf("%s %s: count %d, want %d", desc(), name, got.Count, want.Count)
			}
		}

		// Chunked execution slices both sides of every col-vs-col pred.
		chunk := 1 + rng.Intn(n+10)
		got, _ := runChunked(t, func(sub Chain) (Kernel, error) { return NewNative(sub) }, ch, chunk, nil, true)
		if !equalResults(got, want) {
			t.Fatalf("%s chunked(%d): count %d, want %d", desc(), chunk, got.Count, want.Count)
		}
	}
}

// TestDifferentialBloomPrefilter fuzzes chains containing a Bloom
// prefilter predicate (predicate transfer) through every supporting
// kernel: the filter is seeded from a random subset of the keys, the
// oracle is the scalar Reference (whose Matches shares the filter), and
// the stats counters must agree with the rows the kernel let through.
func TestDifferentialBloomPrefilter(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	types := expr.AllTypes()
	ops := expr.AllCmpOps()

	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(2000)
		space := mach.NewAddrSpace()
		typ := types[rng.Intn(len(types))]
		key := randomColumn(rng, space, "k", typ, n)
		if rng.Intn(2) == 0 {
			for i := 0; i < n; i++ {
				if rng.Intn(10) == 0 {
					key.SetNull(i)
				}
			}
		}
		// Seed the filter from a random subset of the key values (as a
		// hash-join build side would).
		bl := NewBloom(typ, n/4+1)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 && !key.Null(i) {
				bl.Add(key.Raw(i))
			}
		}
		ch := Chain{{Col: key, Bloom: bl}}
		// Half the trials sandwich the prefilter behind a needle compare,
		// exercising the non-leading (mask-AND) kernel paths.
		if rng.Intn(2) == 0 {
			other := randomColumn(rng, space, "w", typ, n)
			ch = append(Chain{{Col: other, Op: ops[rng.Intn(len(ops))], Value: randomNeedle(rng, typ)}}, ch...)
		}
		if err := ch.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := Reference(ch, true)

		for name, kern := range colColKernels(t, ch) {
			var st BloomStats
			for i := range ch {
				if ch[i].IsBloom() {
					ch[i].Stats = &st
				}
			}
			got := kern.Run(mach.New(mach.Default()), true)
			if !equalResults(got, want) {
				t.Fatalf("trial %d %s: count %d, want %d", trial, name, got.Count, want.Count)
			}
			if st.Pass.Load() > st.Checks.Load() {
				t.Fatalf("trial %d %s: bloom pass %d > checks %d", trial, name, st.Pass.Load(), st.Checks.Load())
			}
		}
	}
}

// TestColVsColOverDictionaryDecode pins the dictionary-column story for
// the new comparator family: a column round-tripped through dictionary
// encoding (Encode -> decode via Value) is byte-identical to the
// original, so col-vs-col chains over the decoded copy produce identical
// results on every kernel — the engine's dictionary path feeds the same
// kernels after its unpack step.
// TestBloomNegativeZero: -0 and +0 are one key for both float widths, in
// NormKeyBits and in the filter; a float32 key's stored bits are its
// 32-bit pattern.
func TestBloomNegativeZero(t *testing.T) {
	for _, tc := range []struct {
		typ       expr.Type
		pos, neg  uint64
		nonZeroes []uint64
	}{
		{expr.Float32, 0, uint64(math.Float32bits(float32(math.Copysign(0, -1)))), []uint64{1, 0x80000001}},
		{expr.Float64, 0, math.Float64bits(math.Copysign(0, -1)), []uint64{1, 0x80000000}},
	} {
		if got := NormKeyBits(tc.typ, tc.neg); got != tc.pos {
			t.Errorf("%s: NormKeyBits(-0) = %#x, want %#x", tc.typ, got, tc.pos)
		}
		for _, raw := range tc.nonZeroes {
			if got := NormKeyBits(tc.typ, raw); got != raw {
				t.Errorf("%s: NormKeyBits(%#x) = %#x, want it unchanged", tc.typ, raw, got)
			}
		}
		bl := NewBloom(tc.typ, 4)
		bl.Add(tc.pos)
		if !bl.Test(tc.neg) {
			t.Errorf("%s: filter holding +0 rejects -0", tc.typ)
		}
	}
}

func TestColVsColOverDictionaryDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := expr.AllTypes()
	ops := expr.AllCmpOps()
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(1000)
		typ := types[rng.Intn(len(types))]
		space := mach.NewAddrSpace()
		orig := randomColumn(rng, space, "v", typ, n)
		other := randomColumn(rng, space, "o", typ, n)

		dict := column.Encode(space, orig)
		decoded := column.New(space, "v$dec", typ, n)
		for i := 0; i < n; i++ {
			decoded.Set(i, dict.Value(i))
		}

		op := ops[rng.Intn(len(ops))]
		chOrig := Chain{{Col: orig, Op: op, Col2: other}}
		chDec := Chain{{Col: decoded, Op: op, Col2: other}}
		want := Reference(chOrig, true)
		if got := Reference(chDec, true); !equalResults(got, want) {
			t.Fatalf("trial %d (%s %s): dictionary round-trip changed the reference result", trial, typ, op)
		}
		for name, kern := range colColKernels(t, chDec) {
			if got := kern.Run(mach.New(mach.Default()), true); !equalResults(got, want) {
				t.Fatalf("trial %d (%s %s) %s: count %d, want %d", trial, typ, op, name, got.Count, want.Count)
			}
		}
	}
}
