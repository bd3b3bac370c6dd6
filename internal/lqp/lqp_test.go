package lqp

import (
	"math/rand"
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/mach"
	"fusedscan/internal/sqlparse"
)

type testCatalog map[string]*column.Table

func (c testCatalog) Table(name string) (*column.Table, error) {
	if t, ok := c[name]; ok {
		return t, nil
	}
	return nil, errNoTable
}

var errNoTable = &catalogError{"no such table"}

type catalogError struct{ msg string }

func (e *catalogError) Error() string { return e.msg }

func makeCatalog(t *testing.T) testCatalog {
	t.Helper()
	space := mach.NewAddrSpace()
	rng := rand.New(rand.NewSource(1))
	n := 5000
	av := make([]int32, n) // ~50% are 5
	bv := make([]int32, n) // ~1% are 2
	cv := make([]int64, n) // ~10% are 7
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			av[i] = 5
		} else {
			av[i] = 100
		}
		if rng.Float64() < 0.01 {
			bv[i] = 2
		} else {
			bv[i] = 200
		}
		if rng.Float64() < 0.1 {
			cv[i] = 7
		} else {
			cv[i] = 300
		}
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "a", av))
	tbl.MustAddColumn(column.FromInt32s(space, "b", bv))
	tbl.MustAddColumn(column.FromInt64s(space, "c", cv))
	return testCatalog{"t": tbl}
}

func parse(t *testing.T, sql string) *sqlparse.Select {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestBuildPlanShape(t *testing.T) {
	cat := makeCatalog(t)
	plan, err := Build(parse(t, "SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2"), cat)
	if err != nil {
		t.Fatal(err)
	}
	// Expect a zero-key GroupBy over one scan holding the conjunction in
	// source order.
	agg, ok := plan.Root.(*GroupBy)
	if !ok || len(agg.Keys) != 0 {
		t.Fatalf("root = %s", plan.Root)
	}
	if got := agg.String(); got != "Aggregate[count(*)]" {
		t.Errorf("zero-key sink renders %q", got)
	}
	s, ok := agg.Input.(*Scan)
	if !ok || s.Table != cat["t"] {
		t.Fatalf("aggregate input = %v", agg.Input)
	}
	if len(s.Preds) != 2 || s.Preds[0].Column != "a" || s.Preds[1].Column != "b" {
		t.Fatalf("conjunction = %v", s.Preds)
	}
}

func TestBuildErrors(t *testing.T) {
	cat := makeCatalog(t)
	if _, err := Build(parse(t, "SELECT COUNT(*) FROM missing"), cat); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := Build(parse(t, "SELECT COUNT(*) FROM t WHERE zz = 1"), cat); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := Build(parse(t, "SELECT zz FROM t"), cat); err == nil {
		t.Error("unknown projected column accepted")
	}
	// Literal type resolution: float literal for an int column fails.
	if _, err := Build(parse(t, "SELECT COUNT(*) FROM t WHERE a = 1.5"), cat); err == nil {
		t.Error("float literal for int column accepted")
	}
}

func TestOptimizerEstimatesAndReorders(t *testing.T) {
	cat := makeCatalog(t)
	// Source order: a (50%) then c (10%) then b (1%). After optimization
	// the chain must run b, c, a.
	plan, err := Build(parse(t, "SELECT COUNT(*) FROM t WHERE a = 5 AND c = 7 AND b = 2"), cat)
	if err != nil {
		t.Fatal(err)
	}
	NewOptimizer().Optimize(plan)

	fc := scanOf(t, plan)
	if len(fc.Preds) != 3 {
		t.Fatalf("chain = %v", fc.Preds)
	}
	order := []string{fc.Preds[0].Column, fc.Preds[1].Column, fc.Preds[2].Column}
	if order[0] != "b" || order[1] != "c" || order[2] != "a" {
		t.Errorf("chain order = %v, want [b c a]", order)
	}
	// The estimate is the product of the three: about 1% x 10% x 50%.
	if fc.EstSel <= 0 || fc.EstSel > 0.002 {
		t.Errorf("EstSel = %g", fc.EstSel)
	}
	wantRules := map[string]bool{}
	for _, r := range plan.AppliedRules {
		wantRules[r] = true
	}
	for _, r := range []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity"} {
		if !wantRules[r] {
			t.Errorf("rule %s not applied (got %v)", r, plan.AppliedRules)
		}
	}
}

// scanOf returns the scan leaf at the bottom of a single-table plan's
// spine.
func scanOf(t *testing.T, p *Plan) *Scan {
	t.Helper()
	s, ok := (*spineSlot(p)).(*Scan)
	if !ok {
		t.Fatalf("no scan at the bottom of the spine:\n%s", p.Format())
	}
	return s
}

// bareEmpty reports whether the plan's spine ends in EmptyResult with no
// scan or join left on it: a pruned conjunct takes its siblings and the
// table they filter with it.
func bareEmpty(p *Plan) bool {
	_, ok := (*spineSlot(p)).(*EmptyResult)
	return ok
}

func TestOptimizerPrunesUnsatisfiable(t *testing.T) {
	cat := makeCatalog(t)
	cases := []string{
		"SELECT COUNT(*) FROM t WHERE a = 99999",
		"SELECT COUNT(*) FROM t WHERE a < -5",
		"SELECT COUNT(*) FROM t WHERE a > 99999",
		"SELECT COUNT(*) FROM t WHERE a <= -1",
		"SELECT COUNT(*) FROM t WHERE a >= 99999",
		// A satisfiable sibling goes with the run, on either side of it.
		"SELECT COUNT(*) FROM t WHERE b = 3 AND a = 99999",
		"SELECT COUNT(*) FROM t WHERE a = 99999 AND b = 3",
	}
	for _, sql := range cases {
		plan, err := Build(parse(t, sql), cat)
		if err != nil {
			t.Fatal(err)
		}
		NewOptimizer().Optimize(plan)
		if !bareEmpty(plan) {
			t.Errorf("%s: not pruned to a bare EmptyResult:\n%s", sql, plan.Format())
		}
	}
	// Satisfiable plans are not pruned. Ne is never pruned.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE a = 5",
		"SELECT COUNT(*) FROM t WHERE a <> 99999",
		"SELECT COUNT(*) FROM t WHERE a < 6",
	} {
		plan, err := Build(parse(t, sql), cat)
		if err != nil {
			t.Fatal(err)
		}
		NewOptimizer().Optimize(plan)
		if strings.Contains(plan.Format(), "EmptyResult") {
			t.Errorf("%s: wrongly pruned:\n%s", sql, plan.Format())
		}
	}
}

func TestOptimizerSinglePredicateStillFuses(t *testing.T) {
	cat := makeCatalog(t)
	plan, err := Build(parse(t, "SELECT COUNT(*) FROM t WHERE a = 5"), cat)
	if err != nil {
		t.Fatal(err)
	}
	NewOptimizer().Optimize(plan)
	if !strings.Contains(plan.Format(), "FusedTableScan") {
		t.Errorf("single predicate not tagged:\n%s", plan.Format())
	}
}

func TestOptimizerNoPredicates(t *testing.T) {
	cat := makeCatalog(t)
	plan, err := Build(parse(t, "SELECT COUNT(*) FROM t"), cat)
	if err != nil {
		t.Fatal(err)
	}
	NewOptimizer().Optimize(plan)
	if strings.Contains(plan.Format(), "Fused") {
		t.Errorf("fused chain without predicates:\n%s", plan.Format())
	}
}

func TestPlanFormat(t *testing.T) {
	cat := makeCatalog(t)
	plan, err := Build(parse(t, "SELECT a, b FROM t WHERE a = 5 LIMIT 3"), cat)
	if err != nil {
		t.Fatal(err)
	}
	f := plan.Format()
	for _, want := range []string{"Limit[3]", "Projection[a, b]", "FusedTableScan[a = 5]", "StoredTable(t)"} {
		if !strings.Contains(f, want) {
			t.Errorf("plan missing %q:\n%s", want, f)
		}
	}
}

func TestOptimizerPrunesContradictions(t *testing.T) {
	cat := makeCatalog(t)
	contradictory := []string{
		"SELECT COUNT(*) FROM t WHERE a = 5 AND a = 100",
		"SELECT COUNT(*) FROM t WHERE a < 3 AND a > 7",
		"SELECT COUNT(*) FROM t WHERE a >= 10 AND a < 10",
		"SELECT COUNT(*) FROM t WHERE a = 5 AND a < 5",
		"SELECT COUNT(*) FROM t WHERE a = 5 AND a > 100",
		"SELECT COUNT(*) FROM t WHERE a IS NULL AND a = 5",
		"SELECT COUNT(*) FROM t WHERE a IS NULL AND a IS NOT NULL",
	}
	for _, sql := range contradictory {
		plan, err := Build(parse(t, sql), cat)
		if err != nil {
			t.Fatal(err)
		}
		NewOptimizer().Optimize(plan)
		if !strings.Contains(plan.Format(), "EmptyResult") {
			t.Errorf("%s: not pruned:\n%s", sql, plan.Format())
		}
	}
	satisfiable := []string{
		"SELECT COUNT(*) FROM t WHERE a = 5 AND a = 5",
		"SELECT COUNT(*) FROM t WHERE a >= 5 AND a <= 5",
		"SELECT COUNT(*) FROM t WHERE a > 3 AND a < 7 AND b = 2",
		"SELECT COUNT(*) FROM t WHERE a = 5 AND a <= 5",
		"SELECT COUNT(*) FROM t WHERE a IS NOT NULL AND a = 5",
		"SELECT COUNT(*) FROM t WHERE a <> 100 AND a = 5",
	}
	for _, sql := range satisfiable {
		plan, err := Build(parse(t, sql), cat)
		if err != nil {
			t.Fatal(err)
		}
		NewOptimizer().Optimize(plan)
		if strings.Contains(plan.Format(), "EmptyResult") {
			t.Errorf("%s: wrongly pruned:\n%s", sql, plan.Format())
		}
	}
}

// TestNoFalsePruneOnPeriodicData guards the unsatisfiability pruner
// against aliased statistics: with 14336 rows of i % 7, a strided
// min/max sample (stride 14) would only ever see zeros and the pruner
// would replace p = 5 with EmptyResult. Bounds are exact now, so the
// plan must keep the predicate.
func TestNoFalsePruneOnPeriodicData(t *testing.T) {
	space := mach.NewAddrSpace()
	n := 14336
	pv := make([]int32, n)
	for i := 0; i < n; i++ {
		pv[i] = int32(i % 7)
	}
	tbl := column.NewTable(space, "p")
	tbl.MustAddColumn(column.FromInt32s(space, "p", pv))
	cat := testCatalog{"p": tbl}
	plan, err := Build(parse(t, "SELECT COUNT(*) FROM p WHERE p = 5"), cat)
	if err != nil {
		t.Fatal(err)
	}
	NewOptimizer().Optimize(plan)
	for _, r := range plan.AppliedRules {
		if r == "PruneUnsatisfiablePredicate" {
			t.Fatalf("p = 5 was wrongly pruned as unsatisfiable: %s", plan.Format())
		}
	}
	if strings.Contains(plan.Format(), "EmptyResult") {
		t.Fatalf("plan contains EmptyResult:\n%s", plan.Format())
	}
}
