package bench

import (
	"fmt"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
	"fusedscan/internal/stats"
	"fusedscan/internal/vec"
	"fusedscan/internal/workload"
)

// AblationSurchargeResult examines the paper's observed 512-bit
// instruction surcharge ("some 512-bit instructions take longer than their
// corresponding 256-bit instruction"). The surcharge raises the 512-bit
// kernel's *compute* cycles, but at full width the fused scan usually sits
// on the DRAM roofline, so the runtime is insensitive — the Figure 5 width
// gaps (128->256 larger than 256->512) chiefly come from the memory bound
// compressing the fastest configuration.
type AblationSurchargeResult struct {
	Rows       int
	Widths     []int
	WithMs     []float64 // runtime, default surcharge
	WithoutMs  []float64 // runtime, Surcharge512Cycles = 0
	WithCyc    []float64 // compute cycles, default surcharge
	WithoutCyc []float64 // compute cycles, no surcharge
}

// AblationSurcharge measures the fused scan at all three widths, with and
// without the 512-bit lane-crossing surcharge, at 50% selectivity (where
// compress/permute run on every block).
func AblationSurcharge(cfg Config) AblationSurchargeResult {
	rows := cfg.rows(fig5PaperRows)
	res := AblationSurchargeResult{Rows: rows, Widths: []int{128, 256, 512}}

	run := func(params mach.Params) (ms, cyc []float64) {
		for _, w := range []vec.Width{vec.W128, vec.W256, vec.W512} {
			ww := w
			m := medianOver(cfg.reps(), cfg.Seed, func(seed int64) []float64 {
				space := mach.NewAddrSpace()
				ch := workload.Uniform(space, rows, 2, 0.5, seed)
				k, err := scan.NewFused(ch, ww, vec.IsaAVX512)
				if err != nil {
					panic(err)
				}
				r := runKernel(params, k)
				return []float64{r.RuntimeMs, r.ComputeCyclesTotal}
			})
			ms = append(ms, m[0])
			cyc = append(cyc, m[1])
		}
		return ms, cyc
	}

	res.WithMs, res.WithCyc = run(cfg.Params)
	flat := cfg.Params
	flat.Surcharge512Cycles = 0
	res.WithoutMs, res.WithoutCyc = run(flat)

	w := cfg.out()
	header(w, "Ablation A1", "512-bit instruction surcharge (fused scan, 50% selectivity)")
	fmt.Fprintf(w, "%-8s %14s %14s %16s %16s\n", "width", "runtime", "w/o surcharge", "compute(Mcyc)", "w/o surcharge")
	for i, wd := range res.Widths {
		fmt.Fprintf(w, "%-8d %11.3fms %11.3fms %16.2f %16.2f\n",
			wd, res.WithMs[i], res.WithoutMs[i], res.WithCyc[i]/1e6, res.WithoutCyc[i]/1e6)
	}
	fmt.Fprintf(w, "(the surcharge shows in 512-bit compute cycles; runtime is shielded by the DRAM roofline)\n")
	return res
}

// AblationPenaltyResult shows the SISD scan's sensitivity to the branch
// misprediction penalty — the mechanism behind the Figure 1/5 runtime
// peaks.
type AblationPenaltyResult struct {
	Rows      int
	Penalties []float64
	SISDMs    []float64
	FusedMs   []float64
}

// AblationPenalty sweeps the rollback penalty at 50% selectivity.
func AblationPenalty(cfg Config) AblationPenaltyResult {
	rows := cfg.rows(fig5PaperRows)
	res := AblationPenaltyResult{Rows: rows, Penalties: []float64{0, 9, 18, 27, 36}}
	for _, pen := range res.Penalties {
		params := cfg.Params
		params.MispredictPenaltyCycles = pen
		m := medianOver(cfg.reps(), cfg.Seed, func(seed int64) []float64 {
			space := mach.NewAddrSpace()
			ch := workload.Uniform(space, rows, 2, 0.5, seed)
			sisd, err := scan.NewSISD(ch)
			if err != nil {
				panic(err)
			}
			fused, err := scan.NewFused(ch, vec.W512, vec.IsaAVX512)
			if err != nil {
				panic(err)
			}
			return []float64{runKernel(params, sisd).RuntimeMs, runKernel(params, fused).RuntimeMs}
		})
		res.SISDMs = append(res.SISDMs, m[0])
		res.FusedMs = append(res.FusedMs, m[1])
	}
	w := cfg.out()
	header(w, "Ablation A2", "branch misprediction penalty sweep (50% selectivity)")
	fmt.Fprintf(w, "%-14s %14s %14s %10s\n", "penalty(cyc)", "SISD(ms)", "Fused512(ms)", "speedup")
	for i, pen := range res.Penalties {
		fmt.Fprintf(w, "%-14.0f %14.3f %14.3f %9.2fx\n", pen, res.SISDMs[i], res.FusedMs[i], res.SISDMs[i]/res.FusedMs[i])
	}
	return res
}

// AblationMaterializationResult quantifies the cost the Fused Table Scan
// exists to remove: a classic block-at-a-time scan that materializes a
// bitmap between predicates (one full pass per predicate, bitmap stored
// and reloaded through the memory system) versus the fused chain that
// keeps everything in registers.
type AblationMaterializationResult struct {
	Rows       int
	Sels       []float64
	BlockMs    []float64
	FusedMs    []float64
	BlockBytes []uint64
	FusedBytes []uint64
}

// AblationMaterialization sweeps selectivity for the block-at-a-time
// materialized scan versus the fused scan (both AVX-512, 512-bit).
func AblationMaterialization(cfg Config) AblationMaterializationResult {
	rows := cfg.rows(fig5PaperRows)
	res := AblationMaterializationResult{Rows: rows, Sels: []float64{1e-4, 0.01, 0.1, 0.5}}
	for _, sel := range res.Sels {
		s := sel
		m := medianOver(cfg.reps(), cfg.Seed+int64(sel*1e9), func(seed int64) []float64 {
			space := mach.NewAddrSpace()
			ch := workload.Uniform(space, rows, 2, s, seed)
			block, err := scan.NewBlockMaterialized(ch, vec.W512)
			if err != nil {
				panic(err)
			}
			fused, err := scan.NewFused(ch, vec.W512, vec.IsaAVX512)
			if err != nil {
				panic(err)
			}
			rb := runKernel(cfg.Params, block)
			rf := runKernel(cfg.Params, fused)
			return []float64{rb.RuntimeMs, rf.RuntimeMs,
				float64(rb.DRAMLines() * 64), float64(rf.DRAMLines() * 64)}
		})
		res.BlockMs = append(res.BlockMs, m[0])
		res.FusedMs = append(res.FusedMs, m[1])
		res.BlockBytes = append(res.BlockBytes, uint64(m[2]))
		res.FusedBytes = append(res.FusedBytes, uint64(m[3]))
	}
	w := cfg.out()
	header(w, "Ablation A4", fmt.Sprintf("materialization cost: block-at-a-time bitmaps vs. fused registers (%s rows)", stats.FormatRows(rows)))
	fmt.Fprintf(w, "%-12s %14s %14s %14s %14s %10s\n", "selectivity", "block(ms)", "fused(ms)", "block bytes", "fused bytes", "speedup")
	for i, sel := range res.Sels {
		fmt.Fprintf(w, "%-12s %14.3f %14.3f %14s %14s %9.2fx\n",
			stats.FormatSelectivity(sel), res.BlockMs[i], res.FusedMs[i],
			stats.FormatCount(float64(res.BlockBytes[i])), stats.FormatCount(float64(res.FusedBytes[i])),
			res.BlockMs[i]/res.FusedMs[i])
	}
	return res
}

// AblationDictionaryResult compares the bit-packed dictionary scan (the
// paper's future-work extension) against the plain fused scan and the
// scalar baseline on a single low-cardinality predicate.
type AblationDictionaryResult struct {
	Rows       int
	CodeBits   int
	PlainMs    float64
	DictMs     float64
	SISDMs     float64
	PlainBytes uint64
	DictBytes  uint64
}

// AblationDictionary builds a 64-distinct-value int32 column, encodes it,
// and scans for one value through all three paths.
func AblationDictionary(cfg Config) AblationDictionaryResult {
	rows := cfg.rows(fig5PaperRows)
	space := mach.NewAddrSpace()
	col := column.New(space, "c", expr.Int32, rows)
	// 64 distinct values, uniformly distributed (6-bit codes).
	for i := 0; i < rows; i++ {
		col.SetRaw(i, uint64((uint32(i)*2654435761)>>8&63))
	}
	dict := column.Encode(space, col)
	needle := expr.NewInt(expr.Int32, 5)
	ch := scan.Chain{{Col: col, Op: expr.Eq, Value: needle}}

	fused, err := scan.NewFused(ch, vec.W512, vec.IsaAVX512)
	if err != nil {
		panic(err)
	}
	sisd, err := scan.NewSISD(ch)
	if err != nil {
		panic(err)
	}
	dscan, err := scan.NewDictScan(dict, expr.Eq, needle, vec.W512)
	if err != nil {
		panic(err)
	}

	// The three kernels must agree before timing means anything.
	want := scan.Reference(ch, false).Count
	for _, k := range []scan.Kernel{fused, sisd, dscan} {
		if got := k.Run(mach.New(cfg.Params), false).Count; got != want {
			panic(fmt.Sprintf("bench: %s count %d, want %d", k.Name(), got, want))
		}
	}

	rp := runKernel(cfg.Params, fused)
	rd := runKernel(cfg.Params, dscan)
	rs := runKernel(cfg.Params, sisd)
	res := AblationDictionaryResult{
		Rows:       rows,
		CodeBits:   dict.CodeBits(),
		PlainMs:    rp.RuntimeMs,
		DictMs:     rd.RuntimeMs,
		SISDMs:     rs.RuntimeMs,
		PlainBytes: rp.DRAMLines() * 64,
		DictBytes:  rd.DRAMLines() * 64,
	}
	w := cfg.out()
	header(w, "Ablation A3", fmt.Sprintf("bit-packed dictionary scan (%s rows, %d-bit codes)", stats.FormatRows(rows), res.CodeBits))
	fmt.Fprintf(w, "%-28s %12s %14s\n", "kernel", "runtime(ms)", "DRAM bytes")
	fmt.Fprintf(w, "%-28s %12.3f %14s\n", sisd.Name(), res.SISDMs, stats.FormatCount(float64(res.PlainBytes)))
	fmt.Fprintf(w, "%-28s %12.3f %14s\n", fused.Name(), res.PlainMs, stats.FormatCount(float64(res.PlainBytes)))
	fmt.Fprintf(w, "%-28s %12.3f %14s\n", dscan.Name(), res.DictMs, stats.FormatCount(float64(res.DictBytes)))
	return res
}
