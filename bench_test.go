// Benchmark targets, one group per figure of the paper's evaluation
// section. Each iteration regenerates the figure's workload (at a reduced
// scale suitable for `go test -bench`) and executes the competing scan
// kernels on the machine model. Two kinds of numbers come out:
//
//   - the usual ns/op, which measures this *simulator's* wall-clock (not
//     comparable to the paper's hardware), and
//   - custom metrics reported via b.ReportMetric — "sim-ms" is the
//     simulated runtime on the modelled Xeon 8180 and "speedup" the ratio
//     the corresponding figure plots. These are the reproduction numbers.
//
// The full-scale tables are produced by cmd/fusedscan-bench.
package fusedscan

import (
	"fmt"
	"math/rand"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"

	"fusedscan/internal/bench"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
	"fusedscan/internal/vec"
	"fusedscan/internal/workload"
)

// benchConfig runs figures at 1/128 of paper scale with a single rep per
// iteration.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Scale = 1.0 / 128
	cfg.Reps = 1
	return cfg
}

func BenchmarkFig1_SelectivitySweep(b *testing.B) {
	cfg := benchConfig()
	var last bench.Fig1Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		last = bench.Fig1(cfg)
	}
	peak := 0.0
	for _, ms := range last.RuntimeMs {
		if ms > peak {
			peak = ms
		}
	}
	b.ReportMetric(peak, "sim-ms-peak")
	b.ReportMetric(last.RuntimeMs[len(last.RuntimeMs)-1], "sim-ms-100pct")
}

func BenchmarkFig2_BandwidthCeiling(b *testing.B) {
	cfg := benchConfig()
	var last bench.Fig2Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		last = bench.Fig2(cfg)
	}
	b.ReportMetric(last.GBs[0], "GBs-stride1")
	b.ReportMetric(last.GBs[len(last.GBs)-1], "GBs-ceiling")
}

func BenchmarkFig4_SpeedupGrid(b *testing.B) {
	cfg := benchConfig()
	// The grid includes 64M/132M-row points; shrink further for -bench.
	cfg.Scale = 1.0 / 512
	var last bench.Fig4Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		last = bench.Fig4(cfg)
	}
	best, sum, n := 0.0, 0.0, 0
	for i := range last.Sizes {
		for j := range last.Sels {
			if s := last.Speedup[i][j]; s > 0 {
				sum += s
				n++
				if s > best {
					best = s
				}
			}
		}
	}
	b.ReportMetric(best, "speedup-max")
	b.ReportMetric(sum/float64(n), "speedup-mean")
}

func BenchmarkFig5_RuntimeByImpl(b *testing.B) {
	cfg := benchConfig()
	var last bench.Fig56Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		last = bench.Fig56(cfg)
	}
	// Report the 50%-selectivity column (the paper's headline point).
	i50 := len(last.Sels) - 2
	b.ReportMetric(last.RuntimeMs[scan.ImplSISD][i50], "sim-ms-sisd-50pct")
	b.ReportMetric(last.RuntimeMs[scan.ImplAVX512Fused512][i50], "sim-ms-fused512-50pct")
	b.ReportMetric(last.RuntimeMs[scan.ImplSISD][i50]/last.RuntimeMs[scan.ImplAVX512Fused512][i50], "speedup-50pct")
}

func BenchmarkFig6_MispredictsByImpl(b *testing.B) {
	cfg := benchConfig()
	var last bench.Fig56Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		last = bench.Fig56(cfg)
	}
	i50 := len(last.Sels) - 2
	b.ReportMetric(last.Mispredicts[scan.ImplSISD][i50], "mispredicts-sisd")
	b.ReportMetric(last.Mispredicts[scan.ImplAVX512Fused512][i50], "mispredicts-fused512")
}

func BenchmarkFig7_PredicateScaling(b *testing.B) {
	cfg := benchConfig()
	var last bench.Fig7Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		last = bench.Fig7(cfg)
	}
	k := len(last.Ks) - 1
	b.ReportMetric(last.RuntimeMs[scan.ImplAutoVec][k]/last.RuntimeMs[scan.ImplAVX512Fused512][k], "speedup-5preds")
}

func BenchmarkAblationSurcharge(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		bench.AblationSurcharge(cfg)
	}
}

func BenchmarkAblationPenalty(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		bench.AblationPenalty(cfg)
	}
}

func BenchmarkAblationDictionary(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		bench.AblationDictionary(cfg)
	}
}

// BenchmarkKernel measures each implementation in isolation on one fixed
// workload (500K rows, 2 predicates at 10%): ns/op is the emulator's own
// cost; sim-ms is the modelled hardware runtime.
func BenchmarkKernel(b *testing.B) {
	const rows = 500_000
	space := mach.NewAddrSpace()
	ch := workload.Uniform(space, rows, 2, 0.1, 3)
	params := mach.Default()
	for _, im := range scan.AllImpls() {
		im := im
		b.Run(im.String(), func(b *testing.B) {
			kern, err := im.Build(ch)
			if err != nil {
				b.Fatal(err)
			}
			var simMs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cpu := mach.New(params)
				kern.Run(cpu, false)
				simMs = cpu.Finish().Report(&params).RuntimeMs
			}
			b.ReportMetric(simMs, "sim-ms")
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s-emulated")
		})
	}
}

// BenchmarkVecOps measures the raw software-ISA operation costs.
func BenchmarkVecOps(b *testing.B) {
	a := vec.Iota(vec.W512, 4, 0, 1)
	needle := vec.Set1(vec.W512, 4, 7)
	b.Run("CmpMask512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = vec.CmpMask(vec.W512, 6 /* Uint32 */, 0 /* Eq */, a, needle)
		}
	})
	b.Run("Compress512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = vec.CompressZ(vec.W512, 4, 0xaaaa, a)
		}
	})
	b.Run("Permutex2var512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = vec.Permutex2var(vec.W512, 4, a, needle, a)
		}
	})
}

// BenchmarkSQLPath measures the whole engine path (parse, optimize, JIT
// cache hit, execute) for a small table.
func BenchmarkSQLPath(b *testing.B) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	vals := make([]int32, 100_000)
	for i := range vals {
		vals[i] = int32(i % 100)
	}
	tb.Int32("a", vals)
	tb.Int32("b", vals)
	if err := tb.Finish(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 5"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMaterialization(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		bench.AblationMaterialization(cfg)
	}
}

// BenchmarkIntersect compares the linear two-finger merge against the
// galloping strategy across size ratios: the adaptive IntersectPositions
// should track the better of the two at every ratio.
func BenchmarkIntersect(b *testing.B) {
	const domain = 1 << 22
	rng := rand.New(rand.NewSource(1))
	big := make([]uint32, 0, domain/4)
	for i := 0; i < domain; i++ {
		if rng.Intn(4) == 0 {
			big = append(big, uint32(i))
		}
	}
	for _, ratio := range []int{1, 16, 256, 4096} {
		small := make([]uint32, 0, len(big)/ratio+1)
		for i := 0; i < len(big); i += ratio {
			small = append(small, big[i])
		}
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			var dst []uint32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = scan.IntersectPositions(dst, small, big)
			}
			b.ReportMetric(float64(len(big)+len(small))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
		})
	}
}

// BenchmarkPackedScan pits the packed delta-space SWAR scan against the
// full-width native scan on identical logical data (1M rows, values
// 0..999 so the packed lanes are 16-bit — 4 values per word vs the plain
// path's 2). The wall-clock gate for this lives in
// cmd/fusedscan-smoke (make bench-native-check); this benchmark is for
// interactive profiling.
func BenchmarkPackedScan(b *testing.B) {
	const rows = 1 << 20
	space := mach.NewAddrSpace()
	vals := make([]int32, rows)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = int32(rng.Intn(1000))
	}
	plain := column.FromInt32s(space, "a", vals)
	packed, err := column.Pack(plain)
	if err != nil {
		b.Fatal(err)
	}
	needle := expr.NewInt(expr.Int32, 500)
	for _, tc := range []struct {
		name string
		col  *column.Column
	}{{"plain", plain}, {"packed", packed}} {
		ch := scan.Chain{{Col: tc.col, Op: expr.Lt, Value: needle}}
		kern, err := scan.NewNative(ch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(tc.col.ScanBytes())
			for i := 0; i < b.N; i++ {
				kern.Run(nil, false)
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}
