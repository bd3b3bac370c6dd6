package lqp_test

import (
	"context"
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/pqp"
	"fusedscan/internal/sqlparse"
)

// The optimizer leaves a LIMIT where Build put it; the Limit lowering in
// pqp turns it into a projection cap and keeps the scan that feeds the
// projection on one core (with a stop-after when it feeds it directly).
// These tests pin the logical shape that lowering reads and the scan work
// it saves, seen from outside pqp on a two-core plan (its own
// TestLimitCapsScan checks the operator fields).

// limitRows spans several scan batches, so a scan that stops early
// consumes visibly fewer rows than the table holds.
const limitRows = 4 << 16

type limitCatalog map[string]*column.Table

func (c limitCatalog) Table(name string) (*column.Table, error) {
	if t, ok := c[name]; ok {
		return t, nil
	}
	return nil, &catalogErr{name}
}

type catalogErr struct{ name string }

func (e *catalogErr) Error() string { return "no such table " + e.name }

// newLimitCatalog builds t(a, b, c): a = 5 on even rows (100 otherwise),
// b = 2 on every fourth row (200 otherwise), c = row % 10.
func newLimitCatalog(t *testing.T) limitCatalog {
	t.Helper()
	space := mach.NewAddrSpace()
	av := make([]int32, limitRows)
	bv := make([]int32, limitRows)
	cv := make([]int64, limitRows)
	for i := range av {
		av[i], bv[i] = 100, 200
		if i%2 == 0 {
			av[i] = 5
		}
		if i%4 == 0 {
			bv[i] = 2
		}
		cv[i] = int64(i % 10)
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "a", av))
	tbl.MustAddColumn(column.FromInt32s(space, "b", bv))
	tbl.MustAddColumn(column.FromInt64s(space, "c", cv))
	return limitCatalog{"t": tbl}
}

func optimizedPlan(t *testing.T, cat limitCatalog, sql string) *lqp.Plan {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lqp.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	lqp.NewOptimizer().Optimize(plan)
	return plan
}

// runScan lowers plan with two cores and runs it, and returns the result,
// the stats of its deepest operator (the scan) and whether the scan ran
// its windows on several cores.
func runScan(t *testing.T, plan *lqp.Plan) (pqp.QueryResult, pqp.OperatorStats, bool) {
	t.Helper()
	opts := pqp.DefaultOptions()
	opts.Cores = 2
	opts.Params = mach.Default()
	pp, err := pqp.Translate(plan, jit.NewCompiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	stats := pp.OperatorStats()
	scan := stats[len(stats)-1]
	if !strings.Contains(scan.Name, "TableScan") {
		t.Fatalf("deepest operator = %q\n%s", scan.Name, pp.Format())
	}
	return res, scan, pp.PerCore() != nil
}

func TestPushLimitHints(t *testing.T) {
	cat := newLimitCatalog(t)
	plan := optimizedPlan(t, cat, "SELECT a FROM t WHERE a = 5 AND b = 2 LIMIT 3")

	lim, ok := plan.Root.(*lqp.Limit)
	if !ok || lim.N != 3 {
		t.Fatalf("root = %s", plan.Format())
	}
	proj, ok := lim.Input.(*lqp.Projection)
	if !ok {
		t.Fatalf("limit input = %T", lim.Input)
	}
	if s, ok := proj.Input.(*lqp.Scan); !ok || len(s.Preds) != 2 {
		t.Fatalf("projection input:\n%s", plan.Format())
	}
	if strings.Contains(plan.Format(), "stop after") || strings.Contains(plan.Format(), "limit hint") {
		t.Errorf("logical plan carries a limit hint:\n%s", plan.Format())
	}

	res, scan, parallel := runScan(t, plan)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].Int() != 5 {
			t.Fatalf("row %v violates a = 5", row)
		}
	}
	// The first batch holds thousands of matches, so the scan stops
	// after it.
	if scan.RowsIn >= limitRows {
		t.Errorf("scan consumed %d of %d rows for LIMIT 3 (no stop-after)", scan.RowsIn, limitRows)
	}
	// Helpers would only scan windows the capped projection drops.
	if parallel {
		t.Error("LIMIT 3 scan ran on several cores")
	}
}

func TestPushLimitHintsBlockedBySort(t *testing.T) {
	// ORDER BY between the scan and the limit: the first 3 rows in sort
	// order are not the first 3 in table order, so the scan must not stop
	// early. The projection cap is still safe (it materializes in sorted
	// order).
	cat := newLimitCatalog(t)
	plan := optimizedPlan(t, cat, "SELECT a, c FROM t WHERE a = 5 ORDER BY c DESC LIMIT 3")

	lim := plan.Root.(*lqp.Limit)
	proj, ok := lim.Input.(*lqp.Projection)
	if !ok {
		t.Fatalf("limit input = %T", lim.Input)
	}
	srt, ok := proj.Input.(*lqp.Sort)
	if !ok {
		t.Fatalf("projection input = %T", proj.Input)
	}
	if _, ok := srt.Input.(*lqp.Scan); !ok {
		t.Fatalf("sort input = %T", srt.Input)
	}

	res, scan, parallel := runScan(t, plan)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	// a = 5 holds on even rows, whose c is even: the largest is 8, and it
	// sits in every window, so only a full scan finds the top rows.
	for _, row := range res.Rows {
		if row[0].Int() != 5 || row[1].Int() != 8 {
			t.Errorf("row %v, want a = 5, c = 8", row)
		}
	}
	if scan.RowsIn != limitRows {
		t.Errorf("scan consumed %d of %d rows (sort blocks the stop-after)", scan.RowsIn, limitRows)
	}
	if !parallel {
		t.Error("scan under ORDER BY … LIMIT ran on one core")
	}
}

func TestAggregateNotLimitHinted(t *testing.T) {
	cat := newLimitCatalog(t)
	plan := optimizedPlan(t, cat, "SELECT COUNT(*) FROM t WHERE a = 5 LIMIT 1")

	lim := plan.Root.(*lqp.Limit)
	agg, ok := lim.Input.(*lqp.GroupBy)
	if !ok {
		t.Fatalf("limit input = %T", lim.Input)
	}
	if _, ok := agg.Input.(*lqp.Scan); !ok {
		t.Fatalf("aggregate input = %T", agg.Input)
	}

	res, scan, parallel := runScan(t, plan)
	// Aggregates need every row: the count is that of the whole table.
	if res.Count != limitRows/2 {
		t.Errorf("COUNT(*) = %d, want %d", res.Count, limitRows/2)
	}
	if scan.RowsIn != limitRows {
		t.Errorf("scan consumed %d of %d rows (aggregates need every row)", scan.RowsIn, limitRows)
	}
	if !parallel {
		t.Error("scan under an aggregate ran on one core")
	}
}
