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

func TestTranslateRejectsUnfusedPredicates(t *testing.T) {
	// Only optimized plans reach the executor: the optimizer fuses every
	// predicate run into a scan leaf or prunes it whole, so a bare
	// predicate — a plan that skipped it — is a translate error, on a
	// single table, on a join's probe side and above a join.
	cat, _, _ := fixture(t, 4000)
	space := mach.NewAddrSpace()
	dim := column.NewTable(space, "d")
	dim.MustAddColumn(column.FromInt32s(space, "k", []int32{1, 2, 5}))
	cat["d"] = dim
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2",
		"SELECT COUNT(*) FROM t JOIN d ON t.a = d.k AND t.b = 2",
		"SELECT COUNT(*) FROM t JOIN d ON t.a = d.k WHERE d.k = 2",
	} {
		_, err := Translate(plan(t, cat, sql, false), jit.NewCompiler(), DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), "is not fused into a scan; optimize the plan before translating") {
			t.Errorf("%s: err = %v, want the unfused-predicate error", sql, err)
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
