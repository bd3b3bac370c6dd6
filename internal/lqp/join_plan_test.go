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
	if plan.BuildTable == nil || plan.BuildTable.Name() != "d" {
		t.Fatalf("BuildTable = %v", plan.BuildTable)
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
	// The WHERE predicate starts above the join (pushdown is the
	// optimizer's job).
	pred, ok := g.Input.(*Predicate)
	if !ok || pred.Pred.Column != "x" || pred.OnBuild {
		t.Fatalf("where predicate = %v", g.Input)
	}
	join, ok := pred.Input.(*Join)
	if !ok {
		t.Fatalf("below where = %T", pred.Input)
	}
	if join.ProbeKey != "k" || join.BuildKey != "k" || join.KeyType != expr.Int32 {
		t.Fatalf("join key = %+v", join)
	}
	if len(join.Residuals) != 1 || join.Residuals[0].Probe != "u" || join.Residuals[0].Build != "v" || join.Residuals[0].Op != expr.Lt {
		t.Fatalf("residuals = %+v", join.Residuals)
	}
	// The ON literal condition d.v > 2 sits on the build subtree already.
	bp, ok := join.Build.(*Predicate)
	if !ok || bp.Pred.Column != "v" {
		t.Fatalf("build subtree = %v", join.Build)
	}
	if _, ok := bp.Input.(*StoredTable); !ok {
		t.Fatalf("build leaf = %T", bp.Input)
	}
}

func TestBuildJoinFlippedKeyAndResidual(t *testing.T) {
	cat := makeJoinCatalog(t)
	plan, err := Build(parse(t, "SELECT COUNT(*) FROM f JOIN d ON d.k = f.k AND d.v > f.u"), cat)
	if err != nil {
		t.Fatal(err)
	}
	join := findJoin(plan)
	if join == nil {
		t.Fatal("no join")
	}
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

func TestOptimizeJoinPushdownAndFuse(t *testing.T) {
	cat := makeJoinCatalog(t)
	plan, err := Build(parse(t,
		"SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k AND f.u < d.v WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x"), cat)
	if err != nil {
		t.Fatal(err)
	}
	NewOptimizer().Optimize(plan)

	rules := strings.Join(plan.AppliedRules, ",")
	for _, want := range []string{"PushPredicatesThroughJoin", "PredicateTransferBloom", "FuseConsecutiveScans"} {
		if !strings.Contains(rules, want) {
			t.Errorf("rules %q missing %s", rules, want)
		}
	}

	join := findJoin(plan)
	if join == nil {
		t.Fatal("no join after optimize")
	}
	if !join.Transfer {
		t.Error("predicate transfer not marked")
	}
	// Probe side: f.x >= 1 fused onto the stored table.
	fc, ok := join.Input.(*FusedChain)
	if !ok {
		t.Fatalf("probe side = %T, want FusedChain", join.Input)
	}
	if len(fc.Preds) != 1 || fc.Preds[0].Column != "x" {
		t.Fatalf("probe chain = %+v", fc.Preds)
	}
	// Build side: d.v <= 8 pushed down and fused.
	bfc, ok := join.Build.(*FusedChain)
	if !ok {
		t.Fatalf("build side = %T, want FusedChain", join.Build)
	}
	if len(bfc.Preds) != 1 || bfc.Preds[0].Column != "v" {
		t.Fatalf("build chain = %+v", bfc.Preds)
	}
	// Format renders the build subtree under the join.
	out := plan.Format()
	if !strings.Contains(out, "Build:") || !strings.Contains(out, "HashJoin[f.k = d.k AND f.u < d.v]") {
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
	join := findJoin(clone)
	if join == nil {
		t.Fatal("no join in clone")
	}
	// The build-side parameter bound against d's column type.
	var found bool
	var check func(n Node)
	check = func(n Node) {
		for ; n != nil; n = n.Child() {
			switch tn := n.(type) {
			case *FusedChain:
				for _, pr := range tn.Preds {
					if pr.Column == "v" {
						if pr.Param != 0 || pr.Value.Bits != 3 {
							t.Fatalf("build pred not bound: %+v", pr)
						}
						found = true
					}
				}
			case *Predicate:
				if tn.Pred.Column == "v" {
					if tn.Pred.Param != 0 || tn.Pred.Value.Bits != 3 {
						t.Fatalf("build pred not bound: %+v", tn.Pred)
					}
					found = true
				}
			case *Join:
				check(tn.Build)
			}
		}
	}
	check(clone.Root)
	if !found {
		t.Fatal("build-side predicate not found in clone")
	}
}
