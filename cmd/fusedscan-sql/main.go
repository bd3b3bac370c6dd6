// Command fusedscan-sql executes SQL statements against the engine and
// reports both results and the simulated hardware counters, so the fused
// scan's behaviour can be explored interactively:
//
//	fusedscan-sql -rows 2000000 "SELECT COUNT(*) FROM demo WHERE a = 5 AND b = 5"
//	fusedscan-sql -config sisd "SELECT COUNT(*) FROM demo WHERE a = 5 AND b = 5"
//	fusedscan-sql -csv orders=orders.csv "SELECT SUM(price) FROM orders WHERE qty < 3"
//	fusedscan-sql -load table.fscn "SELECT COUNT(*) FROM mytable WHERE x > 0"
//
// Without a data flag a demo table is generated: four int32 columns, a
// (50% match 5), b (10% match 5), c (1% match 5) and d (uniform 0..999).
// In the REPL, prefix a statement with "explain" to see the plans and the
// JIT-generated source, use \tables to list tables and \q to quit.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"fusedscan"
)

func buildDemo(eng *fusedscan.Engine, rows int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	a := make([]int32, rows)
	b := make([]int32, rows)
	c := make([]int32, rows)
	d := make([]int32, rows)
	for i := 0; i < rows; i++ {
		a[i] = pick(rng, 0.5)
		b[i] = pick(rng, 0.1)
		c[i] = pick(rng, 0.01)
		d[i] = rng.Int31n(1000)
	}
	tb := eng.CreateTable("demo")
	tb.Int32("a", a)
	tb.Int32("b", b)
	tb.Int32("c", c)
	tb.Int32("d", d)
	if err := tb.Finish(); err != nil {
		return err
	}
	// A small dimension table so joins can be explored out of the box:
	// dim.d shares demo.d's 0..999 domain (duplicate keys fan out).
	drng := rand.New(rand.NewSource(seed + 1))
	const dimRows = 4096
	dk := make([]int32, dimRows)
	dv := make([]int32, dimRows)
	dw := make([]int32, dimRows)
	for i := 0; i < dimRows; i++ {
		dk[i] = drng.Int31n(1000)
		dv[i] = drng.Int31n(1000)
		dw[i] = drng.Int31n(100)
	}
	db := eng.CreateTable("dim")
	db.Int32("d", dk)
	db.Int32("v", dv)
	db.Int32("w", dw)
	return db.Finish()
}

func pick(rng *rand.Rand, sel float64) int32 {
	if rng.Float64() < sel {
		return 5
	}
	return rng.Int31n(900) + 100
}

func main() {
	rows := flag.Int("rows", 1_000_000, "rows in the generated demo table")
	seed := flag.Int64("seed", 1, "data seed")
	config := flag.String("config", "avx512-512", "execution config: avx512-512, avx512-256, avx512-128, avx2-128, sisd, native")
	csvSpec := flag.String("csv", "", "import a CSV file as name=path (header fields are name:type)")
	loadPath := flag.String("load", "", "load a binary table file (.fscn)")
	savePath := flag.String("save", "", "after running, save a table as name=path")
	noDemo := flag.Bool("nodemo", false, "skip generating the demo table")
	timeout := flag.Duration("timeout", 0, "per-statement wall-clock limit (0 = none), e.g. 5s")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission limit: queries running at once (0 = unlimited)")
	memBudget := flag.Int64("mem-budget", 0, "per-query memory budget in bytes for materialized results (0 = unlimited)")
	cores := flag.Int("cores", 0, "cores for morsel-parallel scans (0 = the config's default: 1 simulated, GOMAXPROCS native; 1 = the paper's single-core setting)")
	remote := flag.String("remote", "", "send statements to a running fusedscan-server at this base URL (e.g. http://localhost:8080) instead of a local engine")
	flag.Parse()
	stmtTimeout = *timeout
	memBudgetBytes = *memBudget

	if *remote != "" {
		c := newRemoteClient(*remote)
		if err := c.check(); err != nil {
			fatal(err)
		}
		if flag.NArg() > 0 {
			for _, sql := range flag.Args() {
				c.handle(sql)
			}
		} else {
			remoteRepl(c)
		}
		return
	}

	eng := fusedscan.NewEngine()
	if *maxConcurrent > 0 || *memBudget > 0 {
		g := fusedscan.DefaultGovernance()
		g.MaxConcurrent = *maxConcurrent
		g.MemBudgetBytes = *memBudget
		eng.SetGovernance(g)
	}
	if !*noDemo {
		if err := buildDemo(eng, *rows, *seed); err != nil {
			fatal(err)
		}
	}
	if *csvSpec != "" {
		name, path, ok := strings.Cut(*csvSpec, "=")
		if !ok {
			fatal(fmt.Errorf("-csv wants name=path, got %q", *csvSpec))
		}
		if err := eng.LoadCSVFile(path, name); err != nil {
			fatal(err)
		}
	}
	if *loadPath != "" {
		name, err := eng.LoadTable(*loadPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded table %q from %s\n", name, *loadPath)
	}
	cfg, err := parseConfig(*config)
	if err != nil {
		fatal(err)
	}
	if *cores > 0 {
		cfg.Cores = *cores
	}
	if err := eng.SetConfig(cfg); err != nil {
		fatal(err)
	}

	if flag.NArg() > 0 {
		for _, sql := range flag.Args() {
			handle(eng, sql)
		}
	} else {
		repl(eng)
	}

	if *savePath != "" {
		name, path, ok := strings.Cut(*savePath, "=")
		if !ok {
			fatal(fmt.Errorf("-save wants name=path, got %q", *savePath))
		}
		if err := eng.SaveTable(name, path); err != nil {
			fatal(err)
		}
		fmt.Printf("saved table %q to %s\n", name, path)
	}
}

func repl(eng *fusedscan.Engine) {
	fmt.Printf("fusedscan-sql: tables %v. Enter SQL, \"explain SELECT ...\", \\tables, or \\q.\n", eng.TableNames())
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "--"):
		case line == `\q` || line == "exit" || line == "quit":
			return
		case line == `\tables`:
			fmt.Println(strings.Join(eng.TableNames(), "\n"))
		default:
			handle(eng, line)
		}
		fmt.Print("> ")
	}
}

// handle runs one statement; an "explain" prefix switches to plan output,
// and "explain analyze" executes the statement and prints the batch
// pipeline with per-operator counters.
func handle(eng *fusedscan.Engine, sql string) {
	if rest, ok := cutPrefixFold(sql, "explain analyze"); ok {
		analyzeOne(eng, strings.TrimSpace(rest))
		return
	}
	if rest, ok := cutPrefixFold(sql, "explain"); ok {
		explainOne(eng, strings.TrimSpace(rest))
		return
	}
	runOne(eng, sql)
}

func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix) {
		return s[len(prefix):], true
	}
	return s, false
}

func parseConfig(s string) (fusedscan.Config, error) {
	switch s {
	case "avx512-512":
		return fusedscan.Config{Simulate: true, UseFused: true, RegisterWidth: 512}, nil
	case "avx512-256":
		return fusedscan.Config{Simulate: true, UseFused: true, RegisterWidth: 256}, nil
	case "avx512-128":
		return fusedscan.Config{Simulate: true, UseFused: true, RegisterWidth: 128}, nil
	case "avx2-128":
		return fusedscan.Config{Simulate: true, UseFused: true, RegisterWidth: 128, AVX2: true}, nil
	case "sisd":
		return fusedscan.Config{Simulate: true, UseFused: false, RegisterWidth: 512}, nil
	case "native":
		// Real wall-clock execution through the generated SWAR kernels; no
		// simulated counter report.
		return fusedscan.NativeConfig(), nil
	}
	return fusedscan.Config{}, fmt.Errorf("unknown config %q", s)
}

func explainOne(eng *fusedscan.Engine, sql string) {
	ex, err := eng.ExplainQuery(sql)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Println("logical plan:")
	fmt.Print(indent(ex.LogicalPlan))
	fmt.Println("optimized plan:")
	fmt.Print(indent(ex.OptimizedPlan))
	fmt.Printf("rules: %s\n", strings.Join(ex.AppliedRules, ", "))
	if ex.AccessPath != "" {
		fmt.Printf("access path: path=%s\n", ex.AccessPath)
	}
	if ex.Hint != "" {
		fmt.Printf("hint: %s\n", ex.Hint)
	}
	fmt.Println("physical plan:")
	fmt.Print(indent(ex.PhysicalPlan))
	for i, key := range ex.JITKeys {
		fmt.Printf("JIT operator %d: %s (%d lines of generated C++; see fusedscan-explain for the listing)\n",
			i+1, key, strings.Count(ex.JITSources[i], "\n"))
	}
}

func indent(s string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		sb.WriteString("  " + line + "\n")
	}
	return sb.String()
}

// stmtTimeout is the -timeout flag value: the wall-clock budget for each
// statement. Zero means unlimited.
var stmtTimeout time.Duration

// memBudgetBytes is the -mem-budget flag value, kept for the friendly
// over-budget message.
var memBudgetBytes int64

// stmtContext returns the context a statement runs under.
func stmtContext() (context.Context, context.CancelFunc) {
	if stmtTimeout > 0 {
		return context.WithTimeout(context.Background(), stmtTimeout)
	}
	return context.Background(), func() {}
}

func runOne(eng *fusedscan.Engine, sql string) {
	ctx, cancel := stmtContext()
	defer cancel()
	res, err := eng.QueryContext(ctx, sql)
	if err != nil {
		reportErr(err)
		return
	}
	printResult(res)
}

// analyzeOne executes the statement and prints the batch pipeline with
// per-operator runtime counters before the result (EXPLAIN ANALYZE).
func analyzeOne(eng *fusedscan.Engine, sql string) {
	ctx, cancel := stmtContext()
	defer cancel()
	res, err := eng.QueryContext(ctx, sql)
	if err != nil {
		reportErr(err)
		return
	}
	fmt.Println("batch pipeline:")
	for _, op := range res.Operators {
		extra := ""
		if op.Path != "" {
			extra = fmt.Sprintf(" path=%s pruned=%d", op.Path, op.ChunksPruned)
		}
		if op.Encoding != "" {
			extra += fmt.Sprintf(" enc=%s bytes=%d", op.Encoding, op.BytesScanned)
		}
		if op.Cores > 1 {
			extra += fmt.Sprintf(" cores=%d", op.Cores)
		}
		if op.BuildRows > 0 || op.ProbeRows > 0 {
			extra += fmt.Sprintf(" build=%d probe=%d", op.BuildRows, op.ProbeRows)
		}
		if op.BloomChecks > 0 {
			extra += fmt.Sprintf(" bloom=%d/%d", op.BloomPass, op.BloomChecks)
		}
		if op.BloomSkipped {
			extra += " bloom=skipped"
		}
		if op.Groups > 0 {
			extra += fmt.Sprintf(" groups=%d", op.Groups)
		}
		if op.IndexProbes > 0 {
			extra += fmt.Sprintf(" probes=%d idxrows=%d", op.IndexProbes, op.IndexRows)
		}
		fmt.Printf("%s%s  [in=%d out=%d batches=%d %s%s]\n",
			strings.Repeat("  ", op.Depth+1), op.Name, op.RowsIn, op.RowsOut, op.Batches,
			time.Duration(op.WallNs), extra)
	}
	printResult(res)
}

func reportErr(err error) {
	var oe *fusedscan.OverloadedError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "error: statement exceeded -timeout %v and was cancelled\n", stmtTimeout)
	case errors.As(err, &oe):
		fmt.Fprintf(os.Stderr, "error: engine overloaded (%d queries already running), retry in ~%v or raise -max-concurrent\n",
			oe.Running, oe.RetryAfter)
	case errors.Is(err, fusedscan.ErrMemoryBudget):
		fmt.Fprintf(os.Stderr, "error: statement exceeded the -mem-budget of %d bytes; narrow the result or raise the budget\n",
			memBudgetBytes)
	default:
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
	}
}

func printResult(res *fusedscan.Result) {
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "note: degraded execution (%s)\n", res.DegradedReason)
	}
	switch {
	case res.Aggregate:
		fmt.Println(strings.Join(res.Columns, "\t"))
		fmt.Println(strings.Join(res.Rows[0], "\t"))
		fmt.Printf("(over %d qualifying rows)\n", res.Count)
	case res.Columns == nil:
		fmt.Printf("%d qualifying rows\n", res.Count)
	default:
		fmt.Println(strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			fmt.Println(strings.Join(row, "\t"))
		}
		fmt.Printf("(%d of %d qualifying rows shown)\n", len(res.Rows), res.Count)
	}
	r := res.Report
	if r == nil {
		// Native configs execute for real and carry no simulated counters.
		fmt.Println("-- native scan: wall-clock execution, no simulated counter report")
		return
	}
	fmt.Printf("-- %s scan: %.3f ms simulated, %.1f GB/s, %d mispredicts, %d useless prefetches, %d B DRAM\n",
		scanKind(res.Fused), r.RuntimeMs, r.AchievedGBs, r.BranchMispredicts, r.UselessPrefetches, r.DRAMBytes)
	if res.Fused {
		fmt.Printf("-- JIT: %d operator(s), cache %d entries (%d hits so far)\n",
			r.CompiledOperators, r.OperatorCacheSize, r.OperatorCacheHits)
	}
}

func scanKind(fused bool) string {
	if fused {
		return "fused"
	}
	return "SISD"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fusedscan-sql:", err)
	os.Exit(1)
}
