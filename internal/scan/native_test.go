package scan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// TestDifferentialNative fuzzes random chains through the native SWAR
// kernel and the pruned chunked driver, comparing bit-for-bit against the
// scalar reference. Same recipe as the main differential sweep: all ten
// types, all six comparators, NULL-carrying columns, NULL-test
// predicates, and sizes that straddle the 64-row block boundary. Half the
// needles are values the column holds, so later predicates AND into
// dense, sparse and empty masks alike; a third of the trials append a
// column-vs-column and a Bloom predicate behind a dense first predicate,
// over float columns salted with ±0 and NaN.
func TestDifferentialNative(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	types := expr.AllTypes()
	ops := expr.AllCmpOps()

	// Sizes 63/64/65 and 127/128/129 exercise the partial-block tail and
	// the 8-word SWAR fast path's boundary; the rest are random.
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
		newCol := func(name string, typ expr.Type) *column.Column {
			col := randomColumn(rng, space, name, typ, n)
			if typ.Float() {
				for i := 0; i < n; i++ {
					switch rng.Intn(8) {
					case 0:
						col.Set(i, expr.NewFloat(typ, math.Copysign(0, -1)))
					case 1:
						col.Set(i, expr.NewFloat(typ, 0))
					}
				}
			}
			if rng.Intn(3) == 0 {
				for i := 0; i < n; i++ {
					if rng.Intn(10) == 0 {
						col.SetNull(i)
					}
				}
			}
			return col
		}
		var ch Chain
		joinForms := trial >= len(boundary) && rng.Intn(3) == 0
		if joinForms {
			// A dense first predicate (Ne a value the column likely
			// holds), so the join forms see masks with most bits set.
			typ := types[rng.Intn(len(types))]
			if rng.Intn(2) == 0 {
				typ = []expr.Type{expr.Float32, expr.Float64}[rng.Intn(2)]
			}
			first := newCol("f", typ)
			ch = append(ch, Pred{Col: first, Op: expr.Ne, Value: nativeNeedle(rng, first)})
			a, b, key := newCol("x", typ), newCol("y", typ), newCol("k", typ)
			bl := NewBloom(typ, n/2+1)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 && !b.Null(i) {
					bl.Add(b.Raw(i))
				}
			}
			forms := []Pred{{Col: a, Col2: b, Op: ops[rng.Intn(len(ops))]}, {Col: key, Bloom: bl}}
			rng.Shuffle(len(forms), func(i, j int) { forms[i], forms[j] = forms[j], forms[i] })
			ch = append(ch, forms...)
			k = rng.Intn(2)
		}
		for j := 0; j < k; j++ {
			col := newCol(fmt.Sprintf("c%d", j), types[rng.Intn(len(types))])
			switch rng.Intn(6) {
			case 0:
				kind := expr.PredIsNull
				if rng.Intn(2) == 0 {
					kind = expr.PredIsNotNull
				}
				ch = append(ch, Pred{Col: col, Kind: kind})
			default:
				ch = append(ch, Pred{
					Col:   col,
					Op:    ops[rng.Intn(len(ops))],
					Value: nativeNeedle(rng, col),
				})
			}
		}
		want := Reference(ch, true)
		desc := func() string {
			s := fmt.Sprintf("trial %d n=%d:", trial, n)
			for _, p := range ch {
				s += fmt.Sprintf(" [%s %s]", p.Col.Type(), p)
			}
			return s
		}

		kern, err := NewNative(ch)
		if err != nil {
			t.Fatalf("%s: %v", desc(), err)
		}
		if got := kern.Run(nil, true); !equalResults(got, want) {
			t.Fatalf("%s native: count %d, want %d", desc(), got.Count, want.Count)
		}

		// Pruned chunked execution must be bit-identical too: pruning is a
		// proof, and skipped plus executed chunks must cover the table.
		chunk := 1 + rng.Intn(n+10)
		build := func(sub Chain) (Kernel, error) { return NewNative(sub) }
		got, pruned := runChunked(t, build, ch, chunk, nil, true)
		if !equalResults(got, want) {
			t.Fatalf("%s chunked(%d): count %d, want %d (pruned %d/%d)",
				desc(), chunk, got.Count, want.Count, pruned, (n+chunk-1)/chunk)
		}
	}
}

// nativeNeedle picks a compare literal for col: half the time a value the
// column holds, else randomNeedle's, with ±0 and NaN among float needles.
func nativeNeedle(rng *rand.Rand, col *column.Column) expr.Value {
	typ := col.Type()
	switch i := rng.Intn(col.Len()); {
	case rng.Intn(2) == 0 && !col.Null(i):
		return col.Value(i)
	case typ.Float() && rng.Intn(4) == 0:
		return expr.NewFloat(typ, []float64{math.Copysign(0, -1), 0, math.NaN()}[rng.Intn(3)])
	}
	return randomNeedle(rng, typ)
}

// TestNativePrunesClusteredData checks the zone-map skip on the layout it
// is designed for: clustered (sorted) data with a selective predicate. At
// 64 chunks with matches confined to the last one, at least 90% of the
// chunks must be pruned and the result must still be exact.
func TestNativePrunesClusteredData(t *testing.T) {
	const n = 1 << 16
	const chunk = 1 << 10 // 64 chunks
	space := mach.NewAddrSpace()
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i / 100) // sorted, clustered
	}
	col := column.FromInt32s(space, "a", vals)
	needle := expr.NewInt(expr.Int32, int64(vals[n-1]))
	ch := Chain{{Col: col, Op: expr.Eq, Value: needle}}

	want := Reference(ch, true)
	build := func(sub Chain) (Kernel, error) { return NewNative(sub) }
	got, pruned := runChunked(t, build, ch, chunk, nil, true)
	if !equalResults(got, want) {
		t.Fatalf("count %d, want %d", got.Count, want.Count)
	}
	if frac := float64(pruned) / (n / chunk); frac < 0.9 {
		t.Fatalf("pruned %d of %d chunks (%.0f%%), want >= 90%%", pruned, n/chunk, 100*frac)
	}
}

// TestNativeCountOnlyAllocs: a count-only native run must not allocate —
// the whole point of the turbo path is a steady state free of GC traffic.
func TestNativeCountOnlyAllocs(t *testing.T) {
	ch := makeIntChain(t, 1<<14, 2, 0.5, 42)
	kern, err := NewNative(ch)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { kern.Run(nil, false) }); allocs != 0 {
		t.Fatalf("count-only native run allocates %.0f objects per run, want 0", allocs)
	}
}

// TestNativeSpeedup10x is the issue's acceptance gate: on a 1M-row
// two-predicate COUNT(*), the native path must be at least 10x faster in
// wall-clock time than the emulated fused kernel. The margin is normally
// two orders of magnitude, so 10x is safe against scheduler noise.
func TestNativeSpeedup10x(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short")
	}
	ch := makeIntChain(t, 1<<20, 2, 0.5, 7)

	native, err := NewNative(ch)
	if err != nil {
		t.Fatal(err)
	}
	emulated, err := ImplAVX512Fused512.Build(ch)
	if err != nil {
		t.Fatal(err)
	}

	best := func(runs int, f func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < runs; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	// Results must agree before timing means anything.
	if n, e := native.Run(nil, false).Count, emulated.Run(mach.New(mach.Default()), false).Count; n != e {
		t.Fatalf("native count %d != emulated count %d", n, e)
	}
	emu := best(3, func() { emulated.Run(mach.New(mach.Default()), false) })
	nat := best(3, func() { native.Run(nil, false) })
	if nat <= 0 {
		nat = time.Nanosecond
	}
	if ratio := float64(emu) / float64(nat); ratio < 10 {
		t.Fatalf("native %v vs emulated %v: %.1fx, want >= 10x", nat, emu, ratio)
	} else {
		t.Logf("native %v vs emulated %v: %.0fx", nat, emu, ratio)
	}
}

func benchChain(b *testing.B, rows int) Chain {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	space := mach.NewAddrSpace()
	var ch Chain
	for j := 0; j < 2; j++ {
		vals := make([]int32, rows)
		for i := range vals {
			if rng.Float64() < 0.5 {
				vals[i] = 5
			} else {
				vals[i] = int32(rng.Intn(100)) + 10
			}
		}
		col := column.FromInt32s(space, string(rune('a'+j)), vals)
		ch = append(ch, Pred{Col: col, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 5)})
	}
	return ch
}

// sweepChain builds "a < x AND b < half" over two uniform int32 columns of
// 2^16 distinct values, x chosen so that sel of the rows pass a; packed
// bit-packs both columns (16-bit lanes).
func sweepChain(b *testing.B, rows int, sel float64, packed bool) Chain {
	b.Helper()
	const domain = 1 << 16
	rng := rand.New(rand.NewSource(1))
	space := mach.NewAddrSpace()
	var ch Chain
	for j, limit := range []int64{max(1, int64(sel*domain)), domain / 2} {
		vals := make([]int32, rows)
		for i := range vals {
			vals[i] = int32(rng.Intn(domain))
		}
		col := column.FromInt32s(space, string(rune('a'+j)), vals)
		if packed {
			var err error
			if col, err = column.Pack(col); err != nil {
				b.Fatal(err)
			}
		}
		ch = append(ch, Pred{Col: col, Op: expr.Lt, Value: expr.NewInt(expr.Int32, limit)})
	}
	return ch
}

// BenchmarkNativeTwoPredCount times a two-predicate count: "eq50" is
// a = 5 AND b = 5 at 50 % each over one 1 Mi-row window; the plain and
// packed legs sweep the first predicate's selectivity (the paper's
// Figure 5 axis) over 4 Mi rows in 64 Ki-row windows, as the engine runs
// them, on int32 columns and their bit-packed twins.
func BenchmarkNativeTwoPredCount(b *testing.B) {
	b.Run("eq50", func(b *testing.B) {
		kern, err := NewNative(benchChain(b, 1<<20))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(2 * 4 * (1 << 20))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kern.Run(nil, false)
		}
	})
	const rows, window = 1 << 22, 1 << 16
	for _, enc := range []string{"plain", "packed"} {
		for _, sel := range []float64{0.00001, 0.01, 0.5, 1} {
			b.Run(fmt.Sprintf("%s/sel=%g%%", enc, sel*100), func(b *testing.B) {
				ch := sweepChain(b, rows, sel, enc == "packed")
				var kerns []*Native
				for lo := 0; lo < rows; lo += window {
					k, err := NewNative(ch.Slice(lo, lo+window))
					if err != nil {
						b.Fatal(err)
					}
					kerns = append(kerns, k)
				}
				b.SetBytes(2 * 4 * rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, k := range kerns {
						k.Run(nil, false)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}

func BenchmarkNativeTwoPredPositions(b *testing.B) {
	ch := benchChain(b, 1<<20)
	kern, err := NewNative(ch)
	if err != nil {
		b.Fatal(err)
	}
	kern.SetSizeHint(1 << 18)
	b.SetBytes(2 * 4 * (1 << 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.Run(nil, true)
	}
}

// BenchmarkNativeMask times one native compare kernel per type: "x = v"
// and "x < v" over a needle, and "x = y" and "x < y" over two columns,
// each over 4 Mi rows (whole 64-row blocks) in one window, for all ten
// types. The end-to-end benchmark loads only int32 columns; this is where
// a slower int8 or float64 kernel shows.
func BenchmarkNativeMask(b *testing.B) {
	const rows = 1 << 22
	for _, typ := range expr.AllTypes() {
		b.Run(typ.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			space := mach.NewAddrSpace()
			x, y := randomColumn(rng, space, "x", typ, rows), randomColumn(rng, space, "y", typ, rows)
			needle := randomNeedle(rng, typ)
			for _, fam := range []string{"needle", "colcol"} {
				for _, op := range []expr.CmpOp{expr.Eq, expr.Lt} {
					name := map[expr.CmpOp]string{expr.Eq: "eq", expr.Lt: "lt"}[op]
					b.Run(fam+"/"+name, func(b *testing.B) {
						p, bytes := Pred{Col: x, Op: op, Value: needle}, rows*typ.Size()
						if fam == "colcol" {
							p.Col2, bytes = y, 2*bytes
						}
						kern, err := NewNative(Chain{p})
						if err != nil {
							b.Fatal(err)
						}
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							kern.Run(nil, false)
						}
						b.ReportMetric(float64(bytes)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
					})
				}
			}
		})
	}
}

func BenchmarkEmulatedTwoPredCount(b *testing.B) {
	ch := benchChain(b, 1<<20)
	kern, err := ImplAVX512Fused512.Build(ch)
	if err != nil {
		b.Fatal(err)
	}
	// One CPU for the whole run: allocating the machine model is per-query
	// cost, not per-chunk, and would mask the kernel's own (pooled, ~zero)
	// steady-state allocations.
	cpu := mach.New(mach.Default())
	b.SetBytes(2 * 4 * (1 << 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.Run(cpu, false)
	}
}

// TestFusedSteadyStateAllocs: with the run-state pool warm and a live CPU,
// a count-only emulated fused run must be allocation-free in the steady
// state (the occasional fraction comes from the CPU's stream/region
// tables growing amortized across runs).
func TestFusedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc count is meaningless")
	}
	ch := makeIntChain(t, 1<<14, 2, 0.5, 43)
	kern, err := ImplAVX512Fused512.Build(ch)
	if err != nil {
		t.Fatal(err)
	}
	cpu := mach.New(mach.Default())
	kern.Run(cpu, false) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { kern.Run(cpu, false) }); allocs > 1 {
		t.Fatalf("steady-state fused run allocates %.2f objects per run, want ~0", allocs)
	}
}
