package lqp

import (
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// packedCatalog builds a table whose "a" column is bit-packed with values
// in [100, 199] (plus optional NULLs) and a plain "b" column.
func packedCatalog(t *testing.T, withNulls bool) testCatalog {
	t.Helper()
	space := mach.NewAddrSpace()
	n := 2000
	av := make([]int32, n)
	bv := make([]int32, n)
	for i := 0; i < n; i++ {
		av[i] = int32(100 + i%100)
		bv[i] = int32(i % 10)
	}
	tbl := column.NewTable(space, "t")
	a := column.FromInt32s(space, "a", av)
	if withNulls {
		for i := 0; i < n; i += 5 {
			a.SetNull(i)
		}
	}
	tbl.MustAddColumn(a)
	tbl.MustAddColumn(column.FromInt32s(space, "b", bv))
	if err := tbl.PackColumn("a"); err != nil {
		t.Fatal(err)
	}
	return testCatalog{"t": tbl}
}

func optimizePacked(t *testing.T, cat testCatalog, sql string) *Plan {
	t.Helper()
	plan, err := Build(parse(t, sql), cat)
	if err != nil {
		t.Fatal(err)
	}
	NewOptimizer().Optimize(plan)
	return plan
}

func hasRule(p *Plan, rule string) bool {
	for _, r := range p.AppliedRules {
		if r == rule {
			return true
		}
	}
	return false
}

func TestPackedRewriteAlwaysFalse(t *testing.T) {
	cat := packedCatalog(t, false)
	// 50 is below the packed key range [100, 199].
	plan := optimizePacked(t, cat, "SELECT COUNT(*) FROM t WHERE a = 50")
	if !hasRule(plan, "PackedRewriteAlwaysFalse") {
		t.Fatalf("rules = %v", plan.AppliedRules)
	}
	e, ok := (*spineSlot(plan)).(*EmptyResult)
	if !ok {
		t.Fatalf("no EmptyResult in plan:\n%s", plan.Format())
	}
	if !strings.Contains(e.Reason, "packed rewrite") {
		t.Fatalf("reason = %q", e.Reason)
	}

	// The other collapse direction: > max, < min, <= below min, >= above
	// max; and a satisfiable sibling on either side, which goes with the
	// run.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE a > 199",
		"SELECT COUNT(*) FROM t WHERE a < 100",
		"SELECT COUNT(*) FROM t WHERE a <= 99",
		"SELECT COUNT(*) FROM t WHERE a >= 200",
		"SELECT COUNT(*) FROM t WHERE b = 3 AND a = 50",
		"SELECT COUNT(*) FROM t WHERE a = 50 AND b = 3",
	} {
		plan := optimizePacked(t, cat, sql)
		if !hasRule(plan, "PackedRewriteAlwaysFalse") {
			t.Fatalf("%s: rules = %v", sql, plan.AppliedRules)
		}
		if !bareEmpty(plan) {
			t.Errorf("%s: not pruned to a bare EmptyResult:\n%s", sql, plan.Format())
		}
	}
}

func TestPackedRewriteAlwaysTrueDropsPredicate(t *testing.T) {
	cat := packedCatalog(t, false)
	// Every value satisfies a >= 100; with no NULLs the predicate
	// disappears and only b = 3 remains in the fused chain.
	plan := optimizePacked(t, cat, "SELECT COUNT(*) FROM t WHERE a >= 100 AND b = 3")
	if !hasRule(plan, "PackedRewriteAlwaysTrue") {
		t.Fatalf("rules = %v", plan.AppliedRules)
	}
	if fc := scanOf(t, plan); len(fc.Preds) != 1 || fc.Preds[0].Column != "b" {
		t.Fatalf("chain = %v", fc)
	}
}

func TestPackedRewriteAlwaysTrueKeepsNullFilter(t *testing.T) {
	cat := packedCatalog(t, true)
	// With NULLs present the comparison's implicit NOT NULL must survive
	// as an explicit IS NOT NULL.
	plan := optimizePacked(t, cat, "SELECT COUNT(*) FROM t WHERE a <= 199")
	if !hasRule(plan, "PackedRewriteAlwaysTrue") {
		t.Fatalf("rules = %v", plan.AppliedRules)
	}
	fc := scanOf(t, plan)
	if len(fc.Preds) != 1 {
		t.Fatalf("chain preds = %v", fc.Preds)
	}
	if fc.Preds[0].String() != "a IS NOT NULL" {
		t.Fatalf("pred = %s", fc.Preds[0])
	}
	if fc.EstSel != 0.8 {
		t.Errorf("EstSel = %g, want the non-NULL fraction 0.8", fc.EstSel)
	}
}

func TestPackedRewriteInRangePredicateKept(t *testing.T) {
	cat := packedCatalog(t, false)
	plan := optimizePacked(t, cat, "SELECT COUNT(*) FROM t WHERE a > 150")
	if hasRule(plan, "PackedRewriteAlwaysFalse") || hasRule(plan, "PackedRewriteAlwaysTrue") {
		t.Fatalf("in-range predicate was collapsed: %v", plan.AppliedRules)
	}
	if fc := scanOf(t, plan); len(fc.Preds) != 1 || fc.Preds[0].Column != "a" {
		t.Fatalf("chain = %v", fc)
	}
}

// TestAllNullColumnCollapses: a comparison over a column whose every row
// is NULL collapses to EmptyResult for plain and packed encodings alike
// (stats Min/Max are undefined there; found by the packed differential
// fuzzer as an optimizer panic on the plain path), and takes a
// satisfiable sibling on either side with it.
func TestAllNullColumnCollapses(t *testing.T) {
	space := mach.NewAddrSpace()
	for _, pack := range []bool{false, true} {
		tbl := column.NewTable(space, "t")
		a := column.New(space, "a", expr.Int64, 8)
		for i := 0; i < 8; i++ {
			a.Set(i, expr.NewInt(expr.Int64, int64(i)))
			a.SetNull(i)
		}
		tbl.MustAddColumn(a)
		tbl.MustAddColumn(column.FromInt32s(space, "b", []int32{0, 1, 2, 3, 4, 5, 6, 7}))
		if pack {
			if err := tbl.PackColumn("a"); err != nil {
				t.Fatal(err)
			}
		}
		for _, where := range []string{
			"a < 9223372036854775807",
			"b = 3 AND a < 9223372036854775807",
			"a < 9223372036854775807 AND b = 3",
		} {
			plan := optimizePacked(t, testCatalog{"t": tbl}, "SELECT COUNT(*) FROM t WHERE "+where)
			if _, ok := plan.Root.Child().(*EmptyResult); !ok {
				t.Errorf("pack=%v, %s: plan did not collapse to EmptyResult:\n%s", pack, where, plan.Format())
			}
		}
	}
}
