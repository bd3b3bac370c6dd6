package pqp

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
	"fusedscan/internal/sqlparse"
	"fusedscan/internal/vec"
)

type testCatalog map[string]*column.Table

func (c testCatalog) Table(name string) (*column.Table, error) {
	if t, ok := c[name]; ok {
		return t, nil
	}
	return nil, errNoTable
}

type catErr struct{}

func (catErr) Error() string { return "no such table" }

var errNoTable = catErr{}

// fixture builds a table and returns it plus the expected count of
// a = 5 AND b = 2.
func fixture(t *testing.T, n int) (testCatalog, *column.Table, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	space := mach.NewAddrSpace()
	av := make([]int32, n)
	bv := make([]int32, n)
	want := 0
	for i := 0; i < n; i++ {
		av[i] = int32(rng.Intn(10))
		bv[i] = int32(rng.Intn(10))
		if av[i] == 5 && bv[i] == 2 {
			want++
		}
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "a", av))
	tbl.MustAddColumn(column.FromInt32s(space, "b", bv))
	return testCatalog{"t": tbl}, tbl, want
}

func plan(t *testing.T, cat lqp.Catalog, sql string, optimize bool) *lqp.Plan {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lqp.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	if optimize {
		lqp.NewOptimizer().Optimize(lp)
	}
	return lp
}

func TestTranslateAndRunFused(t *testing.T) {
	cat, _, want := fixture(t, 8000)
	lp := plan(t, cat, "SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2", true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Programs) != 1 {
		t.Fatalf("programs = %d", len(pp.Programs))
	}
	if !strings.Contains(pp.Format(), "FusedTableScan") {
		t.Errorf("plan:\n%s", pp.Format())
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
}

func TestTranslateUnfusedOption(t *testing.T) {
	cat, _, want := fixture(t, 8000)
	lp := plan(t, cat, "SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2", true)
	opts := DefaultOptions()
	opts.UseFused = false
	pp, err := Translate(lp, jit.NewCompiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Programs) != 0 {
		t.Fatal("unfused plan compiled programs")
	}
	if !strings.Contains(pp.Format(), "TableScan(SISD)") {
		t.Errorf("plan:\n%s", pp.Format())
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
}

// dimFixture is fixture plus a dimension table d(k) for join plans.
func dimFixture(t *testing.T, rows int) testCatalog {
	cat, _, _ := fixture(t, rows)
	space := mach.NewAddrSpace()
	dim := column.NewTable(space, "d")
	dim.MustAddColumn(column.FromInt32s(space, "k", []int32{1, 2, 5}))
	cat["d"] = dim
	return cat
}

func TestTranslateUnoptimizedPlan(t *testing.T) {
	// Build already puts each side's conjunction in one scan, in source
	// order: an unoptimized plan translates, on a single table and on
	// either side of a join, and counts what the optimized plan counts.
	cat := dimFixture(t, 4000)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2",
		"SELECT COUNT(*) FROM t JOIN d ON t.a = d.k AND t.b = 2",
		"SELECT COUNT(*) FROM t JOIN d ON t.a = d.k WHERE d.k = 2",
	} {
		var counts [2]int64
		for i, optimize := range []bool{false, true} {
			pp, err := Translate(plan(t, cat, sql, optimize), jit.NewCompiler(), DefaultOptions())
			if err != nil {
				t.Fatalf("%s (optimize=%v): %v", sql, optimize, err)
			}
			res, err := pp.Run(context.Background(), mach.New(mach.Default()))
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = res.Count
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: unoptimized count %d, optimized %d", sql, counts[0], counts[1])
		}
	}
}

func TestLimitCapsScan(t *testing.T) {
	// The Limit lowering caps a projection directly below it at n rows,
	// and keeps the scan that feeds the projection on one core. Read
	// directly, the scan also stops after n matches; under a join, whose
	// probe matches are not output rows, or under a sort (the first n rows
	// in sort order are not the first n in table order), it does not.
	// Aggregates need every qualifying row: nothing is capped.
	cat := dimFixture(t, 4000)
	opts := DefaultOptions()
	opts.Cores = 2
	for _, tc := range []struct {
		sql                 string
		capRows, stopAfter  int
		capped, overProject bool
	}{
		{"SELECT a FROM t WHERE a = 5 AND b = 2 LIMIT 3", 3, 3, true, true},
		{"SELECT a FROM t LIMIT 4", 4, 4, true, true},
		{"SELECT a FROM t WHERE a = 5 ORDER BY b LIMIT 3", 3, 0, false, true},
		{"SELECT t.a, d.k FROM t JOIN d ON t.a = d.k WHERE t.b = 2 LIMIT 3", 3, 0, true, true},
		{"SELECT COUNT(*) FROM t WHERE a = 5 LIMIT 1", 0, 0, false, false},
		{"SELECT a FROM t WHERE a = 5 LIMIT 0", 0, 0, false, true},
	} {
		pp, err := Translate(plan(t, cat, tc.sql, true), jit.NewCompiler(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var proj *projectOp
		var sc *scanOp
		for op := pp.Root; op != nil; {
			switch o := op.(type) {
			case *projectOp:
				proj = o
			case *scanOp:
				sc = o
			case *joinOp:
				sc = o.probe
			}
			c, ok := op.(interface{ child() Operator })
			if !ok {
				break
			}
			op = c.child()
		}
		if sc == nil || (proj != nil) != tc.overProject {
			t.Fatalf("%s: plan\n%s", tc.sql, pp.Format())
		}
		if proj != nil && proj.capRows != tc.capRows {
			t.Errorf("%s: projection cap %d, want %d", tc.sql, proj.capRows, tc.capRows)
		}
		if sc.stopAfter != tc.stopAfter || sc.capped != tc.capped {
			t.Errorf("%s: scan stopAfter %d capped %v, want %d %v", tc.sql, sc.stopAfter, sc.capped, tc.stopAfter, tc.capped)
		}
	}
}

func TestProjectionAndLimit(t *testing.T) {
	cat, _, _ := fixture(t, 1000)
	lp := plan(t, cat, "SELECT a, b FROM t WHERE a = 5 LIMIT 4", true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].Int() != 5 {
			t.Fatalf("projected row %v violates predicate", row)
		}
	}
	if res.Columns[0] != "a" || res.Columns[1] != "b" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestSelectStarProjectsAllColumns(t *testing.T) {
	cat, _, _ := fixture(t, 100)
	lp := plan(t, cat, "SELECT * FROM t WHERE a = 5", true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestEmptyResultTranslation(t *testing.T) {
	cat, tbl, _ := fixture(t, 100)
	_ = tbl
	lp := plan(t, cat, "SELECT COUNT(*) FROM t WHERE a = 12345", true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pp.Format(), "EmptyResult") {
		t.Fatalf("plan:\n%s", pp.Format())
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || len(res.Rows) != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFullScanCount(t *testing.T) {
	cat, _, _ := fixture(t, 321)
	lp := plan(t, cat, "SELECT COUNT(*) FROM t", true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 321 {
		t.Fatalf("count = %d", res.Count)
	}
}

func TestTranslateInvalidWidth(t *testing.T) {
	cat, _, _ := fixture(t, 10)
	lp := plan(t, cat, "SELECT COUNT(*) FROM t WHERE a = 5", true)
	if _, err := Translate(lp, jit.NewCompiler(), Options{UseFused: true, Width: vec.Width(99)}); err == nil {
		t.Error("invalid width accepted")
	}
}

func TestResultsAgreeWithReference(t *testing.T) {
	cat, tbl, _ := fixture(t, 5000)
	a, _ := tbl.Column("a")
	b, _ := tbl.Column("b")
	ch := scan.Chain{
		{Col: a, Op: mustOp("="), Value: mustVal(a, "5")},
		{Col: b, Op: mustOp("="), Value: mustVal(b, "2")},
	}
	want := scan.Reference(ch, false).Count

	lp := plan(t, cat, "SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2", true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
}

func mustOp(s string) expr.CmpOp {
	op, err := expr.ParseCmpOp(s)
	if err != nil {
		panic(err)
	}
	return op
}

func mustVal(c *column.Column, s string) expr.Value {
	v, err := expr.ParseValue(c.Type(), s)
	if err != nil {
		panic(err)
	}
	return v
}

// TestNativePlanIgnoresMachineModel: a plan translated with Options.Native
// charges no machine model, even when its caller hands Run or RunTo a CPU,
// and returns what a nil-CPU run returns.
func TestNativePlanIgnoresMachineModel(t *testing.T) {
	cat, _ := nullFixture(t, 10007, 5)
	opts := Options{Native: true, Width: DefaultOptions().Width, ISA: DefaultOptions().ISA}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2",
		"SELECT a, b FROM t WHERE a >= 3 ORDER BY b DESC LIMIT 9",
		"SELECT a, SUM(b) FROM t WHERE b < 8 GROUP BY a",
	} {
		run := func(cpu *mach.CPU, stream bool) QueryResult {
			pp, err := Translate(plan2(t, cat, sql, true), jit.NewCompiler(), opts)
			if err != nil {
				t.Fatal(err)
			}
			var res QueryResult
			if stream {
				res, err = pp.RunTo(context.Background(), cpu, func(Batch, [][]string) error { return nil })
			} else {
				res, err = pp.Run(context.Background(), cpu)
			}
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			return res
		}
		want := renderResult(run(nil, false))
		for _, stream := range []bool{false, true} {
			cpu := mach.New(mach.Default())
			got := run(cpu, stream)
			if c := cpu.Counters(); c != (mach.Counters{}) {
				t.Errorf("%q (stream=%v): native run charged the model: %+v", sql, stream, c)
			}
			if !stream && renderResult(got) != want {
				t.Errorf("%q: with a CPU\n%swithout\n%s", sql, renderResult(got), want)
			}
			if stream && got.Count != run(nil, true).Count {
				t.Errorf("%q: streamed count %d with a CPU, %d without", sql, got.Count, run(nil, true).Count)
			}
		}
	}
}
