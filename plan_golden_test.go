package fusedscan

import (
	"slices"
	"testing"

	"fusedscan/internal/lqp"
	"fusedscan/internal/pqp"
	"fusedscan/internal/sqlparse"
)

// buildGoldenEngine registers the golden-plan tables: t (100,000 rows; a
// at 50 %, b uniform over 100 values, c unique and indexed, a indexed
// too, p bit-packed over [100, 199], pn packed with NULLs, n with NULLs,
// k a join key) and d (4 Ki rows; k unique, v over 10 values, w over
// 1000).
func buildGoldenEngine(t *testing.T) *Engine {
	t.Helper()
	const rows = 100_000
	a, b, c, p, pn, n, k := make([]int32, rows), make([]int32, rows), make([]int32, rows),
		make([]int32, rows), make([]int32, rows), make([]int32, rows), make([]int32, rows)
	var nulls []int
	for i := range a {
		a[i], b[i], c[i] = int32(i%2), int32(i*7%100), int32(i)
		p[i], pn[i], n[i], k[i] = int32(100+i%100), int32(100+i*3%100), int32(i%50), int32(i*13%8192)
		if i%9 == 0 {
			nulls = append(nulls, i)
		}
	}
	eng := NewEngine()
	if err := eng.CreateTable("t").Int32("a", a).Int32("b", b).Int32("c", c).Int32("p", p).
		Int32("pn", pn).Int32("n", n).Int32("k", k).NullsAt("pn", nulls).NullsAt("n", nulls).
		Pack("p", "pn").Index("a", "c").Finish(); err != nil {
		t.Fatal(err)
	}
	dk, dv, dw := make([]int32, 4096), make([]int32, 4096), make([]int32, 4096)
	for i := range dk {
		dk[i], dv[i], dw[i] = int32(i), int32(i%10), int32(i*31%1000)
	}
	if err := eng.CreateTable("d").Int32("k", dk).Int32("v", dv).Int32("w", dw).Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenPlan plans sql with args as the engine does — bind a clone of the
// cached skeleton, then optimize it — or, with skeleton set, as the
// benchmark's traced walker does: optimize the parameterized skeleton,
// then bind a clone and re-cost its access path. It returns the optimized
// plan, the applied rules and the physical plan under the default config.
func goldenPlan(t *testing.T, e *Engine, sql string, args []string, skeleton bool) (string, []string, string) {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var plan *lqp.Plan
	if skeleton {
		if plan, err = lqp.Build(sel, e); err != nil {
			t.Fatal(err)
		}
		e.optimizer.Optimize(plan)
		_, slots := sqlparse.Normalize(sel)
		bound, err := sqlparse.BindSlots(slots, sel.NumParams, args)
		if err != nil {
			t.Fatal(err)
		}
		plan = plan.Clone()
		if err := plan.Bind(bound); err != nil {
			t.Fatal(err)
		}
		e.optimizer.ChooseAccessPath(plan)
	} else {
		shaped := shapeOf(sel)
		stage := stageParse
		if plan, err = e.plan(&shaped, args, &stage, nil); err != nil {
			t.Fatal(err)
		}
	}
	opts, err := e.Config().options()
	if err != nil {
		t.Fatal(err)
	}
	phys, err := pqp.Translate(plan, e.compiler, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Format(), plan.AppliedRules, phys.Format()
}

// TestGoldenPlans pins the optimized logical plan, the applied rules and
// the physical plan of one statement per optimizer rule, access path and
// LIMIT lowering, ad hoc and prepared. Among conjuncts with equal
// estimates — every unbound parameter's — the scan keeps source order.
func TestGoldenPlans(t *testing.T) {
	eng := buildGoldenEngine(t)
	cases := []struct {
		name, sql string
		args      []string
		skeleton  bool
		plan      string
		rules     []string
		phys      string
	}{
		{name: "reorder", sql: "SELECT COUNT(*) FROM t WHERE a = 0 AND b = 3",
			plan:  "Aggregate[count(*)]\n  FusedTableScan[b = 3 AND a = 0]\n    StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity", "ChooseAccessPath(scan (index on a rejected: sel 0.5 > crossover 0.05))"},
			phys:  "Aggregate[count(*)]\n  FusedTableScan[fused_int32_eq_int32_eq_w512_avx512] on t\n"},
		{name: "between", sql: "SELECT COUNT(*) FROM t WHERE b BETWEEN 3 AND 7 AND a = 1",
			plan:  "Aggregate[count(*)]\n  FusedTableScan[b <= 7 AND a = 1 AND b >= 3]\n    StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity", "ChooseAccessPath(scan (index on a rejected: sel 0.5 > crossover 0.05))"},
			phys:  "Aggregate[count(*)]\n  FusedTableScan[fused_int32_le_int32_eq_int32_ge_w512_avx512] on t\n"},
		{name: "is-null", sql: "SELECT COUNT(*) FROM t WHERE a = 0 AND n IS NULL",
			plan:  "Aggregate[count(*)]\n  FusedTableScan[n IS NULL AND a = 0]\n    StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity", "ChooseAccessPath(scan (index on a rejected: sel 0.5 > crossover 0.05))"},
			phys:  "Aggregate[count(*)]\n  FusedTableScan[fused_int32_isnull_int32_eq_w512_avx512] on t\n"},
		{name: "is-not-null", sql: "SELECT n, b FROM t WHERE n IS NOT NULL AND b = 1",
			plan:  "Projection[n, b]\n  FusedTableScan[b = 1 AND n IS NOT NULL]\n    StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity", "ChooseAccessPath(scan (no eligible index))"},
			phys:  "Projection[n, b]\n  FusedTableScan[fused_int32_eq_int32_notnull_w512_avx512] on t\n"},
		{name: "packed-always-true", sql: "SELECT COUNT(*) FROM t WHERE p >= 100 AND b = 2",
			plan:  "Aggregate[count(*)]\n  FusedTableScan[b = 2]\n    StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "PackedRewriteAlwaysTrue", "ChooseAccessPath(scan (no eligible index))"},
			phys:  "Aggregate[count(*)]\n  FusedTableScan[fused_int32_eq_w512_avx512] on t\n"},
		{name: "packed-always-true-nulls", sql: "SELECT COUNT(*) FROM t WHERE pn <= 199 AND b = 2",
			plan:  "Aggregate[count(*)]\n  FusedTableScan[b = 2 AND pn IS NOT NULL]\n    StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "PackedRewriteAlwaysTrue", "ReorderPredicatesBySelectivity", "ChooseAccessPath(scan (no eligible index))"},
			phys:  "Aggregate[count(*)]\n  FusedTableScan[fused_int32_eq_int32_notnull_w512_avx512] on t\n"},
		{name: "packed-always-false", sql: "SELECT COUNT(*) FROM t WHERE b = 2 AND p = 50",
			plan:  "Aggregate[count(*)]\n  EmptyResult(packed rewrite: p = 50 is outside the stored key range)\n",
			rules: []string{"EstimateSelectivities", "PackedRewriteAlwaysFalse"},
			phys:  "Aggregate[count(*)]\n  EmptyResult(packed rewrite: p = 50 is outside the stored key range)\n"},
		{name: "contradiction", sql: "SELECT COUNT(*) FROM t WHERE a = 0 AND b = 4 AND a = 1",
			plan:  "Aggregate[count(*)]\n  EmptyResult(contradiction: a = 1 AND a = 0)\n",
			rules: []string{"EstimateSelectivities", "PruneContradictoryPredicates"},
			phys:  "Aggregate[count(*)]\n  EmptyResult(contradiction: a = 1 AND a = 0)\n"},
		{name: "out-of-range", sql: "SELECT COUNT(*) FROM t WHERE b = 1 AND a = 99999",
			plan:  "Aggregate[count(*)]\n  EmptyResult(a = 99999 is outside [0, 1])\n",
			rules: []string{"EstimateSelectivities", "PruneUnsatisfiablePredicate"},
			phys:  "Aggregate[count(*)]\n  EmptyResult(a = 99999 is outside [0, 1])\n"},
		{name: "join", sql: "SELECT t.a, SUM(d.w) FROM t JOIN d ON t.k = d.k AND d.v > 2 AND t.b < 50 WHERE t.n = 4 AND d.w < 500 GROUP BY t.a",
			plan:  "GroupBy[t.a | sum(d.w)]\n  HashJoin[t.k = d.k] (bloom transfer)\n    Build:\n      FusedTableScan[w < 500 AND v > 2]\n        StoredTable(d)\n    FusedTableScan[n = 4 AND b < 50]\n      StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity", "PredicateTransferBloom", "EstimateSelectivities", "ReorderPredicatesBySelectivity"},
			phys:  "GroupBy[t.a | sum(d.w)]\n  HashJoin[t.k = d.k] (bloom transfer)\n    Build:\n      FusedTableScan[fused_int32_lt_int32_gt_w512_avx512] on d\n    FusedTableScan(direct) on t\n"},
		{name: "join-collapsed", sql: "SELECT COUNT(*) FROM t JOIN d ON t.k = d.k WHERE t.b = 3 AND d.v > 1000",
			plan:  "Aggregate[count(*)]\n  EmptyResult(join build side is empty: v > 1000 is outside [0, 9])\n",
			rules: []string{"EstimateSelectivities", "PruneUnsatisfiablePredicate", "PredicateTransferBloom", "EstimateSelectivities", "CollapseEmptyJoin"},
			phys:  "Aggregate[count(*)]\n  EmptyResult(join build side is empty: v > 1000 is outside [0, 9])\n"},
		{name: "index-hint", sql: "SELECT /*+ INDEX(t a) */ COUNT(*) FROM t WHERE a = 1 AND b = 3",
			plan:  "Aggregate[count(*)]\n  IndexScan(a)[a = 1 AND b = 3 (residual)] est=0.004883 cost=2.001e+06 vs scan=4.039e+05 (hint forced)\n",
			rules: []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity", "ChooseAccessPath(index(a) est=0.004883 cost=2.001e+06 vs scan=4.039e+05 hint=index(t a))"},
			phys:  "Aggregate[count(*)]\n  IndexScan[a] on t + residual FusedTableScan(direct)\n"},
		{name: "no-index-hint", sql: "SELECT /*+ NO_INDEX */ COUNT(*) FROM t WHERE c = 5 AND b = 5",
			plan:  "Aggregate[count(*)]\n  FusedTableScan[c = 5 AND b = 5]\n    StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ChooseAccessPath(scan (hint=no_index))"},
			phys:  "Aggregate[count(*)]\n  FusedTableScan[fused_int32_eq_int32_eq_w512_avx512] on t\n"},
		{name: "index-cost", sql: "SELECT COUNT(*) FROM t WHERE b = 3 AND c = 5",
			plan:  "Aggregate[count(*)]\n  IndexScan(c)[c = 5 AND b = 3 (residual)] est=9.766e-08 cost=1.585e+05 vs scan=4.002e+05\n",
			rules: []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity", "ChooseAccessPath(index(c) est=9.766e-08 cost=1.585e+05 vs scan=4.002e+05)"},
			phys:  "Aggregate[count(*)]\n  IndexScan[c] on t + residual FusedTableScan(direct)\n"},
		{name: "index-cost-rejected", sql: "SELECT COUNT(*) FROM t WHERE b = 3 AND c < 40",
			plan:  "Aggregate[count(*)]\n  FusedTableScan[c < 40 AND b = 3]\n    StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ReorderPredicatesBySelectivity", "ChooseAccessPath(scan cost=4.004e+05 vs index(c)=4.023e+05)"},
			phys:  "Aggregate[count(*)]\n  FusedTableScan[fused_int32_lt_int32_eq_w512_avx512] on t\n"},
		{name: "index-limit", sql: "SELECT b, c FROM t WHERE c < 3 AND b = 3 LIMIT 2",
			plan:  "Limit[2]\n  Projection[b, c]\n    IndexScan(c)[c < 3 AND b = 3 (residual)] est=2.93e-07 cost=3.119e+05 vs scan=4.004e+05\n",
			rules: []string{"EstimateSelectivities", "ChooseAccessPath(index(c) est=2.93e-07 cost=3.119e+05 vs scan=4.004e+05)"},
			phys:  "Limit[2]\n  Projection[b, c]\n    IndexScan[c] on t + residual FusedTableScan(direct)\n"},
		{name: "limit", sql: "SELECT a, b FROM t WHERE b = 3 LIMIT 5",
			plan:  "Limit[5]\n  Projection[a, b]\n    FusedTableScan[b = 3]\n      StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ChooseAccessPath(scan (no eligible index))"},
			phys:  "Limit[5]\n  Projection[a, b]\n    FusedTableScan[fused_int32_eq_w512_avx512] on t\n"},
		{name: "limit-unfiltered", sql: "SELECT a FROM t LIMIT 3",
			plan:  "Limit[3]\n  Projection[a]\n    StoredTable(t)\n",
			rules: []string(nil),
			phys:  "Limit[3]\n  Projection[a]\n    TableScan(t, all rows)\n"},
		{name: "order-by-limit", sql: "SELECT a, b FROM t WHERE b = 3 ORDER BY c DESC LIMIT 5",
			plan:  "Limit[5]\n  Projection[a, b]\n    Sort[c DESC]\n      FusedTableScan[b = 3]\n        StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "ChooseAccessPath(scan (no eligible index))"},
			phys:  "Limit[5]\n  Projection[a, b]\n    Sort[c DESC]\n      FusedTableScan[fused_int32_eq_w512_avx512] on t\n"},
		{name: "prepared-join", sql: "SELECT COUNT(*) FROM t JOIN d ON t.k = d.k AND d.v > $1 WHERE t.a = $2 AND t.b < $3 AND d.w < $4",
			args:  []string{"2", "1", "3", "700"},
			plan:  "Aggregate[count(*)]\n  HashJoin[t.k = d.k] (bloom transfer)\n    Build:\n      FusedTableScan[v > 2 AND w < 700]\n        StoredTable(d)\n    FusedTableScan[b < 3 AND a = 1]\n      StoredTable(t)\n",
			rules: []string{"EstimateSelectivities", "PredicateTransferBloom", "EstimateSelectivities", "ReorderPredicatesBySelectivity"},
			phys:  "Aggregate[count(*)]\n  HashJoin[t.k = d.k] (bloom transfer)\n    Build:\n      FusedTableScan[fused_int32_gt_int32_lt_w512_avx512] on d\n    FusedTableScan(direct) on t\n"},
		{name: "prepared-join-skeleton", sql: "SELECT COUNT(*) FROM t JOIN d ON t.k = d.k AND d.v > $1 WHERE t.a = $2 AND t.b < $3 AND d.w < $4",
			args: []string{"2", "1", "3", "700"}, skeleton: true,
			plan:  "Aggregate[count(*)]\n  HashJoin[t.k = d.k] (bloom transfer)\n    Build:\n      FusedTableScan[v > 2 AND w < 700]\n        StoredTable(d)\n    FusedTableScan[a = 1 AND b < 3]\n      StoredTable(t)\n",
			rules: []string{"PredicateTransferBloom"},
			phys:  "Aggregate[count(*)]\n  HashJoin[t.k = d.k] (bloom transfer)\n    Build:\n      FusedTableScan[fused_int32_gt_int32_lt_w512_avx512] on d\n    FusedTableScan(direct) on t\n"},
		{name: "prepared-index-skeleton", sql: "SELECT COUNT(*) FROM t WHERE b = $1 AND c = $2",
			args: []string{"3", "7"}, skeleton: true,
			plan:  "Aggregate[count(*)]\n  IndexScan(c)[c = 7 AND b = 3 (residual)] est=9.766e-08 cost=1.585e+05 vs scan=4.039e+05\n",
			rules: []string{"ChooseAccessPath(index(c) est=9.766e-08 cost=1.585e+05 vs scan=4.039e+05)"},
			phys:  "Aggregate[count(*)]\n  IndexScan[c] on t + residual FusedTableScan(direct)\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, rules, phys := goldenPlan(t, eng, tc.sql, tc.args, tc.skeleton)
			if plan != tc.plan {
				t.Errorf("optimized plan\n%s want\n%s", plan, tc.plan)
			}
			if !slices.Equal(rules, tc.rules) {
				t.Errorf("applied rules %q, want %q", rules, tc.rules)
			}
			if phys != tc.phys {
				t.Errorf("physical plan\n%s want\n%s", phys, tc.phys)
			}
		})
	}
}
