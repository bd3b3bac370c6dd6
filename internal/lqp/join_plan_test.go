package lqp

import (
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// makeJoinCatalog builds a fact table "f" (k, u, x) and a dimension table
// "d" (k, v, y) for join-planning tests.
func makeJoinCatalog(t *testing.T) testCatalog {
	t.Helper()
	space := mach.NewAddrSpace()
	n := 1000
	fk := make([]int32, n)
	fu := make([]int32, n)
	fx := make([]int32, n)
	for i := 0; i < n; i++ {
		fk[i] = int32(i % 100)
		fu[i] = int32(i % 7)
		fx[i] = int32(i % 4)
	}
	f := column.NewTable(space, "f")
	f.MustAddColumn(column.FromInt32s(space, "k", fk))
	f.MustAddColumn(column.FromInt32s(space, "u", fu))
	f.MustAddColumn(column.FromInt32s(space, "x", fx))

	m := 100
	dk := make([]int32, m)
	dv := make([]int32, m)
	dy := make([]int64, m)
	for i := 0; i < m; i++ {
		dk[i] = int32(i)
		dv[i] = int32(i % 11)
		dy[i] = int64(i * 3)
	}
	d := column.NewTable(space, "d")
	d.MustAddColumn(column.FromInt32s(space, "k", dk))
	d.MustAddColumn(column.FromInt32s(space, "v", dv))
	d.MustAddColumn(column.FromInt64s(space, "y", dy))
	return testCatalog{"f": f, "d": d}
}

func TestBuildJoinGroupByShape(t *testing.T) {
	cat := makeJoinCatalog(t)
	plan, err := Build(parse(t,
		"SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k AND f.u < d.v AND d.v > 2 WHERE f.x >= 1 GROUP BY f.x"), cat)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := plan.Root.(*GroupBy)
	if !ok {
		t.Fatalf("root = %T", plan.Root)
	}
	if len(g.Keys) != 1 || g.Keys[0].Col != "x" || g.Keys[0].Build {
		t.Fatalf("keys = %+v", g.Keys)
	}
	if len(g.Items) != 1 || g.Items[0].Kind != AggSum || g.Items[0].Col.Col != "y" || !g.Items[0].Col.Build {
		t.Fatalf("items = %+v", g.Items)
	}
	// Build routes each conjunct to its side's scan: the WHERE predicate
	// f.x >= 1 to the probe scan, the ON literal condition d.v > 2 to the
	// build scan.
	join, ok := g.Input.(*Join)
	if !ok {
		t.Fatalf("below the aggregate = %T", g.Input)
	}
	if join.ProbeKey != "k" || join.BuildKey != "k" || join.KeyType != expr.Int32 {
		t.Fatalf("join key = %+v", join)
	}
	if len(join.Residuals) != 1 || join.Residuals[0].Probe != "u" || join.Residuals[0].Build != "v" || join.Residuals[0].Op != expr.Lt {
		t.Fatalf("residuals = %+v", join.Residuals)
	}
	if p := join.Input; p.Table.Name() != "f" || len(p.Preds) != 1 || p.Preds[0].Column != "x" {
		t.Fatalf("probe scan = %v", p)
	}
	if b := join.Build; b.Table.Name() != "d" || len(b.Preds) != 1 || b.Preds[0].Column != "v" {
		t.Fatalf("build scan = %v", b)
	}
}

func TestBuildJoinFlippedKeyAndResidual(t *testing.T) {
	cat := makeJoinCatalog(t)
	plan, err := Build(parse(t, "SELECT COUNT(*) FROM f JOIN d ON d.k = f.k AND d.v > f.u"), cat)
	if err != nil {
		t.Fatal(err)
	}
	join := joinOf(t, plan)
	if join.ProbeKey != "k" || join.BuildKey != "k" {
		t.Fatalf("flipped key not normalized: %+v", join)
	}
	// d.v > f.u normalizes to f.u < d.v.
	if len(join.Residuals) != 1 || join.Residuals[0].Probe != "u" || join.Residuals[0].Op != expr.Lt {
		t.Fatalf("residuals = %+v", join.Residuals)
	}
	// Un-grouped aggregate over a join plans as a zero-key GroupBy.
	g, ok := plan.Root.(*GroupBy)
	if !ok || len(g.Keys) != 0 || g.Items[0].Kind != AggCount {
		t.Fatalf("root = %v", plan.Root)
	}
}

func TestBuildJoinErrors(t *testing.T) {
	cat := makeJoinCatalog(t)
	cases := []struct {
		sql, wantErr string
	}{
		{"SELECT COUNT(*) FROM f JOIN f ON f.k = f.k", "self-join"},
		{"SELECT COUNT(*) FROM f JOIN d ON f.k = f.u AND f.k = d.k", "must reference both tables"},
		{"SELECT COUNT(*) FROM f JOIN d ON f.k = d.y", "mixes"},
		{"SELECT COUNT(*) FROM f JOIN d ON g.k = d.k", "unknown table"},
		{"SELECT COUNT(*) FROM f JOIN d ON k = d.k", "ambiguous"},
		{"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE zz = 1", "neither"},
		{"SELECT x FROM f JOIN d ON f.k = d.k ORDER BY x", "ORDER BY over a join"},
	}
	for _, tc := range cases {
		_, err := Build(parse(t, tc.sql), cat)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.sql, err, tc.wantErr)
		}
	}
}

// joinOf returns the Join at the bottom of the plan's spine.
func joinOf(t *testing.T, p *Plan) *Join {
	t.Helper()
	j, ok := (*spineSlot(p)).(*Join)
	if !ok {
		t.Fatalf("no join at the bottom of the spine:\n%s", p.Format())
	}
	return j
}

func TestOptimizeJoinPushdownAndFuse(t *testing.T) {
	cat := makeJoinCatalog(t)
	plan, err := Build(parse(t,
		"SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k AND f.u < d.v WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x"), cat)
	if err != nil {
		t.Fatal(err)
	}
	NewOptimizer().Optimize(plan)

	rules := strings.Join(plan.AppliedRules, ",")
	if rules != "EstimateSelectivities,PredicateTransferBloom,EstimateSelectivities" {
		t.Errorf("rules %q", rules)
	}
	join := joinOf(t, plan)
	if !join.Transfer {
		t.Error("predicate transfer not marked")
	}
	// Probe side: f.x >= 1, estimated over f.
	if p := join.Input; len(p.Preds) != 1 || p.Preds[0].Column != "x" || p.EstSel != 0.75 {
		t.Fatalf("probe scan = %v, est %g", p, p.EstSel)
	}
	// Build side: d.v <= 8, estimated over d.
	if b := join.Build; len(b.Preds) != 1 || b.Preds[0].Column != "v" || b.EstSel <= 0.75 || b.EstSel >= 1 {
		t.Fatalf("build scan = %v, est %g", b, b.EstSel)
	}
	// Format renders the build scan under the join, each fused scan over
	// its table.
	out := plan.Format()
	want := `GroupBy[f.x | sum(d.y)]
  HashJoin[f.k = d.k AND f.u < d.v] (bloom transfer)
    Build:
      FusedTableScan[v <= 8]
        StoredTable(d)
    FusedTableScan[x >= 1]
      StoredTable(f)
`
	if out != want {
		t.Errorf("format:\n%s", out)
	}
}

func TestOptimizeJoinCollapseEmptyBuild(t *testing.T) {
	cat := makeJoinCatalog(t)
	// d.v is in [0, 10] and f.x in [0, 3]: v > 1000 or x = 777 is
	// unsatisfiable, so the whole join is, whichever side it filters and
	// wherever it sits in its side's predicate run.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k AND d.v > 1000",
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE d.y = 3 AND d.v > 1000",
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE d.v > 1000 AND d.y = 3",
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k AND d.v > 1000 WHERE d.y = 3",
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE f.u = 3 AND f.x = 777",
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE f.x = 777 AND f.u = 3",
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k AND f.x = 777 WHERE f.u = 3",
	} {
		plan, err := Build(parse(t, sql), cat)
		if err != nil {
			t.Fatal(err)
		}
		NewOptimizer().Optimize(plan)
		g, ok := plan.Root.(*GroupBy)
		if !ok {
			t.Fatalf("%s: root = %T", sql, plan.Root)
		}
		if _, ok := g.Input.(*EmptyResult); !ok {
			t.Errorf("%s: join not collapsed:\n%s", sql, plan.Format())
		}
		if !strings.Contains(strings.Join(plan.AppliedRules, ","), "CollapseEmptyJoin") {
			t.Errorf("%s: rules = %v", sql, plan.AppliedRules)
		}
	}
}

func TestCloneAndBindJoinPlan(t *testing.T) {
	cat := makeJoinCatalog(t)
	plan, err := Build(parse(t,
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k AND d.v > $1 WHERE f.x >= $2"), cat)
	if err != nil {
		t.Fatal(err)
	}
	NewOptimizer().Optimize(plan)
	if plan.NumParams != 2 {
		t.Fatalf("NumParams = %d", plan.NumParams)
	}
	clone := plan.Clone()
	if err := clone.Bind([]string{"3", "1"}); err != nil {
		t.Fatal(err)
	}
	// The skeleton must keep its parameter slots.
	if plan.NumParams != 2 {
		t.Error("Bind mutated the skeleton")
	}
	join := joinOf(t, clone)
	// Each side's parameter bound against its own table's column type.
	if pr := join.Build.Preds[0]; pr.Column != "v" || pr.Param != 0 || pr.Value.Bits != 3 {
		t.Fatalf("build pred not bound: %+v", pr)
	}
	if pr := join.Input.Preds[0]; pr.Column != "x" || pr.Param != 0 || pr.Value.Bits != 1 {
		t.Fatalf("probe pred not bound: %+v", pr)
	}
	// The skeleton's scans keep their slots.
	if pr := joinOf(t, plan).Build.Preds[0]; pr.Param != 1 {
		t.Fatalf("skeleton build pred = %+v", pr)
	}
}
