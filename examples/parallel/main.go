// Parallel: morsel-driven multi-core scan scaling (an extension beyond the
// paper's single-core evaluation). Config.Cores sets how many simulated
// cores a scan's 64 Ki-row chunks are spread over; the modelled runtime
// comes from ScanResult.Report. Two regimes fall out of the model:
//
//   - the branchy SISD scan is compute-bound (misprediction rollbacks), so
//     it scales nearly linearly with cores;
//   - the fused scan at low selectivity is memory-bound at ~12 GB/s per
//     core, so its scaling saturates once the socket's ~80 GB/s of DRAM
//     bandwidth is consumed (~7 cores).
//
// This mirrors the classic observation that SIMD-optimized scans move the
// bottleneck to memory — after which more cores stop helping.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fusedscan"
)

func main() {
	const rows = 4_000_000
	rng := rand.New(rand.NewSource(9))
	a := make([]int32, rows)
	b := make([]int32, rows)
	for i := 0; i < rows; i++ {
		if rng.Float64() < 0.5 {
			a[i] = 5
		} else {
			a[i] = rng.Int31n(100) + 10
		}
		if rng.Float64() < 0.5 {
			b[i] = 2
		} else {
			b[i] = rng.Int31n(100) + 10
		}
	}

	eng := fusedscan.NewEngine()
	tb := eng.CreateTable("tbl")
	tb.Int32("a", a)
	tb.Int32("b", b)
	if err := tb.Finish(); err != nil {
		log.Fatal(err)
	}

	run := func(label string, cfg fusedscan.Config) {
		fmt.Printf("%s (4M rows, 50%% selectivity per predicate)\n", label)
		fmt.Printf("%-8s %14s %12s %10s\n", "cores", "runtime", "bandwidth", "speedup")
		var base float64
		for _, cores := range []int{1, 2, 4, 8, 16} {
			cfg.Cores = cores
			if err := eng.SetConfig(cfg); err != nil {
				log.Fatal(err)
			}
			res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
			if err != nil {
				log.Fatal(err)
			}
			r := res.Report
			if cores == 1 {
				base = r.RuntimeMs
			}
			fmt.Printf("%-8d %11.3f ms %7.1f GB/s %9.2fx\n", cores, r.RuntimeMs, r.AchievedGBs, base/r.RuntimeMs)
		}
		fmt.Println()
	}

	run("SISD scalar scan — compute-bound, scales with cores",
		fusedscan.Config{Simulate: true, UseFused: false, RegisterWidth: 512})
	run("Fused Table Scan — memory-bound, saturates the socket",
		fusedscan.DefaultConfig())
}
