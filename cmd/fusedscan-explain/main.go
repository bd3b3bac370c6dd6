// Command fusedscan-explain shows the paper's Figure 8/9 pipeline for a
// query: the logical plan before and after optimization — the table's
// conjunction is one fused-scan node from the SQL translator on, and the
// optimizer estimates, prunes and reorders it — the physical plan with the
// fused operator, and the C++ source the JIT compiler generates for it.
//
//	fusedscan-explain "SELECT COUNT(*) FROM demo WHERE a = 5 AND c = 5"
//	fusedscan-explain -jit=false "..."   # hide the generated source
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"fusedscan"
)

func main() {
	rows := flag.Int("rows", 100_000, "rows in the generated demo table")
	showJIT := flag.Bool("jit", true, "print the JIT-generated operator source")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for the execution step (0 = none)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fusedscan-explain [flags] \"SELECT ...\"")
		fmt.Fprintln(os.Stderr, "demo table columns: a int32 (~50% = 5), b int32 (~10% = 5), c int32 (~1% = 5), d int64")
		os.Exit(2)
	}

	eng := fusedscan.NewEngine()
	rng := rand.New(rand.NewSource(7))
	a := make([]int32, *rows)
	b := make([]int32, *rows)
	c := make([]int32, *rows)
	d := make([]int64, *rows)
	for i := range a {
		a[i] = pick(rng, 0.5)
		b[i] = pick(rng, 0.1)
		c[i] = pick(rng, 0.01)
		d[i] = int64(rng.Intn(100))
	}
	tb := eng.CreateTable("demo")
	tb.Int32("a", a)
	tb.Int32("b", b)
	tb.Int32("c", c)
	tb.Int64("d", d)
	if err := tb.Finish(); err != nil {
		fatal(err)
	}

	sql := flag.Arg(0)
	ex, err := eng.ExplainQuery(sql)
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== SQL ===")
	fmt.Println(sql)
	fmt.Println("\n=== Logical query plan (after SQL translator) ===")
	fmt.Print(ex.LogicalPlan)
	fmt.Println("\n=== Optimized logical query plan ===")
	fmt.Print(ex.OptimizedPlan)
	fmt.Println("\nApplied rules:")
	for _, r := range ex.AppliedRules {
		fmt.Println("  -", r)
	}
	if ex.AccessPath != "" {
		fmt.Printf("\nAccess path: path=%s\n", ex.AccessPath)
	}
	if ex.Hint != "" {
		fmt.Printf("Hint: %s\n", ex.Hint)
	}
	fmt.Println("\n=== Physical query plan (after LQP translator) ===")
	fmt.Print(ex.PhysicalPlan)
	if *showJIT {
		for i, src := range ex.JITSources {
			fmt.Printf("\n=== JIT-generated operator %d (%s) ===\n", i+1, ex.JITKeys[i])
			fmt.Print(src)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := eng.QueryContext(ctx, sql)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fatal(fmt.Errorf("execution exceeded -timeout %v and was cancelled", *timeout))
		}
		fatal(err)
	}
	fmt.Println("\n=== Execution ===")
	if res.Degraded {
		fmt.Printf("note: degraded execution (%s)\n", res.DegradedReason)
	}
	fmt.Printf("result count: %d\n", res.Count)
	fmt.Printf("simulated:    %.3f ms, %.1f GB/s, %d branch mispredicts, %d B DRAM traffic\n",
		res.Report.RuntimeMs, res.Report.AchievedGBs, res.Report.BranchMispredicts, res.Report.DRAMBytes)
	if res.Fused {
		fmt.Printf("JIT:          %d operator(s) compiled (modelled compile time %d us), cache size %d\n",
			res.Report.CompiledOperators, res.Report.CompileTimeMicros, res.Report.OperatorCacheSize)
	}
}

func pick(rng *rand.Rand, sel float64) int32 {
	if rng.Float64() < sel {
		return 5
	}
	return rng.Int31n(900) + 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fusedscan-explain:", err)
	os.Exit(1)
}
