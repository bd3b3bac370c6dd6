package fusedscan

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fusedscan/internal/faultinject"
)

// buildIndexEngine creates an engine with one table "ev" of n rows:
// column a is uniform over [0, card), column b uniform over [0, 100).
func buildIndexEngine(t *testing.T, n, card int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	av := make([]int32, n)
	bv := make([]int32, n)
	for i := 0; i < n; i++ {
		av[i] = int32(rng.Intn(card))
		bv[i] = int32(rng.Intn(100))
	}
	eng := NewEngine()
	if err := eng.CreateTable("ev").Int32("a", av).Int32("b", bv).Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// indexScanStats returns the IndexScan operator's stats, or ok=false when
// the query ran on the scan path.
func indexScanStats(res *Result) (OperatorStats, bool) {
	for _, op := range res.Operators {
		if strings.Contains(op.Name, "IndexScan") {
			return op, true
		}
	}
	return OperatorStats{}, false
}

func TestCreateIndexSQLAndPlanChoice(t *testing.T) {
	eng := buildIndexEngine(t, 1<<18, 1000)
	const q = "SELECT COUNT(*) FROM ev WHERE a = 123"

	scanRes, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, usedIndex := indexScanStats(scanRes); usedIndex {
		t.Fatal("IndexScan before any index exists")
	}

	res, err := eng.Query("CREATE INDEX ON ev (a)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0], "created index") {
		t.Fatalf("DDL result = %+v", res.Rows)
	}
	if metas := eng.Indexes("ev"); len(metas) != 1 || metas[0].Column != "a" || !metas[0].Covering {
		t.Fatalf("Indexes = %+v", metas)
	}

	// Point lookup (sel ~1/1000): the index must win, with the identical count.
	idxRes, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if idxRes.Count != scanRes.Count {
		t.Fatalf("index path count %d != scan path count %d", idxRes.Count, scanRes.Count)
	}
	os, usedIndex := indexScanStats(idxRes)
	if !usedIndex {
		t.Fatal("point lookup did not use the index")
	}
	if os.IndexProbes != 1 || os.IndexRows != idxRes.Count {
		t.Fatalf("probes=%d idxrows=%d, want 1 probe materializing %d rows", os.IndexProbes, os.IndexRows, idxRes.Count)
	}

	ex, err := eng.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ex.AccessPath, "index(a)") || !strings.Contains(ex.AccessPath, "est=") {
		t.Fatalf("AccessPath = %q, want index(a) est=…", ex.AccessPath)
	}
	if !strings.Contains(strings.Join(ex.AppliedRules, ","), "ChooseAccessPath") {
		t.Fatalf("AppliedRules = %v, missing ChooseAccessPath", ex.AppliedRules)
	}

	st := eng.Stats()
	if st.Indexes != 1 || st.IndexScans == 0 || st.IndexProbes == 0 || st.IndexRows == 0 {
		t.Fatalf("EngineStats = indexes=%d scans=%d probes=%d rows=%d", st.Indexes, st.IndexScans, st.IndexProbes, st.IndexRows)
	}
}

func TestIndexScanRowOutputAndResidual(t *testing.T) {
	// High cardinality so the probe hits ~8 of 1M rows: few enough that
	// most 64Ki-row residual windows go untouched and the index wins.
	eng := buildIndexEngine(t, 1<<20, 1<<17)
	// Projection + residual predicate on b: the index serves a, the fused
	// chain refines b, and the projected rows must match the scan path
	// exactly, in the same order.
	const q = "SELECT a, b FROM ev WHERE a = 77 AND b < 50"
	scanRes, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}
	idxRes, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	os, usedIndex := indexScanStats(idxRes)
	if !usedIndex {
		t.Fatal("query did not use the index")
	}
	if !strings.Contains(os.Name, "residual") && !strings.Contains(os.Name, "TableScan") {
		t.Logf("IndexScan operator: %q", os.Name)
	}
	if len(idxRes.Rows) != len(scanRes.Rows) {
		t.Fatalf("index path returned %d rows, scan path %d", len(idxRes.Rows), len(scanRes.Rows))
	}
	for i := range idxRes.Rows {
		if idxRes.Rows[i][0] != scanRes.Rows[i][0] || idxRes.Rows[i][1] != scanRes.Rows[i][1] {
			t.Fatalf("row %d: index %v vs scan %v", i, idxRes.Rows[i], scanRes.Rows[i])
		}
	}
}

func TestIndexIntersection(t *testing.T) {
	eng := buildIndexEngine(t, 1<<17, 2000)
	for _, ddl := range []string{"CREATE INDEX ON ev (a)", "CREATE INDEX ON ev (b)"} {
		if _, err := eng.Query(ddl); err != nil {
			t.Fatal(err)
		}
	}
	// Both predicates are index-servable and selective; b=3 has sel ~1%,
	// a=9 ~0.05% — both under the crossover, so both probe and the sorted
	// lists intersect.
	const q = "SELECT COUNT(*) FROM ev WHERE a = 9 AND b = 3"
	ex, err := eng.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ex.AccessPath, "index(a,b)") {
		t.Fatalf("AccessPath = %q, want index(a,b) …", ex.AccessPath)
	}
	res, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	os, usedIndex := indexScanStats(res)
	if !usedIndex || os.IndexProbes != 2 {
		t.Fatalf("probes = %d (used=%v), want 2", os.IndexProbes, usedIndex)
	}
	// Cross-check against a hint-suppressed scan.
	plain, err := eng.Query("SELECT /*+ NO_INDEX */ COUNT(*) FROM ev WHERE a = 9 AND b = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != plain.Count {
		t.Fatalf("intersection count %d != scan count %d", res.Count, plain.Count)
	}
}

// TestAccessPathThreeShapes is the EXPLAIN acceptance check: the decision
// and its cost estimates are visible on an index-winning shape, a
// crossover-rejected shape, and a no-index shape.
func TestAccessPathThreeShapes(t *testing.T) {
	eng := buildIndexEngine(t, 1<<18, 1000)
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}

	ex, err := eng.ExplainQuery("SELECT COUNT(*) FROM ev WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ex.AccessPath, "index(a)") || !strings.Contains(ex.AccessPath, "vs scan=") {
		t.Fatalf("point lookup AccessPath = %q", ex.AccessPath)
	}

	ex, err = eng.ExplainQuery("SELECT COUNT(*) FROM ev WHERE a < 900")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ex.AccessPath, "scan") || !strings.Contains(ex.AccessPath, "crossover") {
		t.Fatalf("low-selectivity AccessPath = %q, want crossover rejection", ex.AccessPath)
	}

	ex, err = eng.ExplainQuery("SELECT COUNT(*) FROM ev WHERE b = 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ex.AccessPath, "scan") || !strings.Contains(ex.AccessPath, "no eligible index") {
		t.Fatalf("unindexed AccessPath = %q, want no-eligible-index scan", ex.AccessPath)
	}
}

// TestDoltLessonCrossover sweeps predicate selectivity and checks the
// planner never picks the index above the crossover, however the cost
// formula comes out.
func TestDoltLessonCrossover(t *testing.T) {
	eng := buildIndexEngine(t, 1<<17, 1000)
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int{60, 100, 250, 500, 999} { // sel 6%…100%
		q := fmt.Sprintf("SELECT COUNT(*) FROM ev WHERE a < %d", bound)
		ex, err := eng.ExplainQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(ex.AccessPath, "index") {
			t.Fatalf("a < %d (sel %.0f%%) chose %q above the %.0f%% crossover",
				bound, float64(bound)/10, ex.AccessPath, 100*0.05)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, usedIndex := indexScanStats(res); usedIndex {
			t.Fatalf("a < %d executed on the index path", bound)
		}
	}
}

func TestIndexHints(t *testing.T) {
	eng := buildIndexEngine(t, 1<<17, 1000)
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}

	// NO_INDEX suppresses an otherwise-winning index.
	ex, err := eng.ExplainQuery("SELECT /*+ NO_INDEX */ COUNT(*) FROM ev WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	if ex.AccessPath != "scan (hint=no_index)" || ex.Hint != "NO_INDEX" {
		t.Fatalf("NO_INDEX: AccessPath=%q Hint=%q", ex.AccessPath, ex.Hint)
	}

	// INDEX(t col) forces the index above the crossover gate.
	forcedQ := "SELECT /*+ INDEX(ev a) */ COUNT(*) FROM ev WHERE a < 500"
	ex, err = eng.ExplainQuery(forcedQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ex.AccessPath, "index(a)") || !strings.Contains(ex.AccessPath, "hint=index(ev a)") {
		t.Fatalf("forced: AccessPath=%q", ex.AccessPath)
	}
	forced, err := eng.Query(forcedQ)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Query("SELECT COUNT(*) FROM ev WHERE a < 500")
	if err != nil {
		t.Fatal(err)
	}
	if forced.Count != plain.Count {
		t.Fatalf("forced index count %d != scan count %d", forced.Count, plain.Count)
	}
	if _, usedIndex := indexScanStats(forced); !usedIndex {
		t.Fatal("forced query did not run an IndexScan")
	}
	if _, usedIndex := indexScanStats(plain); usedIndex {
		t.Fatal("unhinted low-selectivity query ran an IndexScan")
	}

	// Reserved hints fail loudly.
	if _, err := eng.Query("SELECT /*+ JOIN_ORDER(a b) */ COUNT(*) FROM ev WHERE a = 5"); err == nil {
		t.Fatal("reserved hint accepted")
	}
}

func TestDropIndexSQL(t *testing.T) {
	eng := buildIndexEngine(t, 1<<16, 100)
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err == nil {
		t.Fatal("duplicate CREATE INDEX accepted")
	}
	if _, err := eng.Query("DROP INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}
	if metas := eng.Indexes("ev"); len(metas) != 0 {
		t.Fatalf("Indexes after drop = %+v", metas)
	}
	ex, err := eng.ExplainQuery("SELECT COUNT(*) FROM ev WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(ex.AccessPath, "index") {
		t.Fatalf("AccessPath after drop = %q", ex.AccessPath)
	}
	if _, err := eng.Query("DROP INDEX ON ev (a)"); err == nil {
		t.Fatal("double DROP INDEX accepted")
	}
}

func TestRebuildOnReRegister(t *testing.T) {
	eng := buildIndexEngine(t, 1<<16, 100)
	if err := eng.CreateIndex("ev", "a"); err != nil {
		t.Fatal(err)
	}
	if !eng.DropTable("ev") {
		t.Fatal("DropTable failed")
	}
	// Re-register the same name with different data: the definition
	// survives and the index rebuilds against the new rows.
	vals := make([]int32, 4096)
	for i := range vals {
		vals[i] = int32(i % 64)
	}
	if err := eng.CreateTable("ev").Int32("a", vals).Finish(); err != nil {
		t.Fatal(err)
	}
	metas := eng.Indexes("ev")
	if len(metas) != 1 || metas[0].Rows != 4096 {
		t.Fatalf("rebuilt index metas = %+v", metas)
	}
	res, err := eng.Query("SELECT COUNT(*) FROM ev WHERE a = 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 64 {
		t.Fatalf("count = %d, want 64", res.Count)
	}
	if _, usedIndex := indexScanStats(res); !usedIndex {
		t.Fatal("rebuilt index not used")
	}
}

func TestIndexBuildBudget(t *testing.T) {
	eng := buildIndexEngine(t, 1<<16, 100)
	g := DefaultGovernance()
	g.MemBudgetBytes = 1 << 10 // 64Ki entries need ~768 KiB
	eng.SetGovernance(g)
	err := eng.CreateIndex("ev", "a")
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	var me *MemoryBudgetError
	if !errors.As(err, &me) {
		t.Fatalf("err = %T, want *MemoryBudgetError", err)
	}
	if len(eng.Indexes("ev")) != 0 {
		t.Fatal("over-budget build left an index behind")
	}
}

func TestIndexBuildFaultSite(t *testing.T) {
	eng := buildIndexEngine(t, 1<<16, 100)
	faultinject.Arm(faultinject.SiteIndexBuildAlloc, 1, faultinject.ModeError)
	defer faultinject.Reset()
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err == nil {
		t.Fatal("CREATE INDEX survived armed index.build.alloc")
	}
	faultinject.Reset()
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}

	// A probe fault fails the one query, typed, without damaging the index.
	faultinject.Arm(faultinject.SiteIndexProbe, 1, faultinject.ModeError)
	_, err := eng.Query("SELECT COUNT(*) FROM ev WHERE a = 5")
	var fe *faultinject.Error
	if !errors.As(err, &fe) || fe.Site != faultinject.SiteIndexProbe {
		t.Fatalf("err = %v, want injected index.probe failure", err)
	}
	faultinject.Reset()
	if _, err := eng.Query("SELECT COUNT(*) FROM ev WHERE a = 5"); err != nil {
		t.Fatalf("query after probe fault: %v", err)
	}
}

// TestPreparedBoundAccessPath checks the plan-cache path re-runs the
// access-path rule per execution: the same prepared statement picks the
// index for a selective literal and the scan for an unselective one.
func TestPreparedBoundAccessPath(t *testing.T) {
	eng := buildIndexEngine(t, 1<<17, 1000)
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}
	p, err := eng.Prepare("SELECT COUNT(*) FROM ev WHERE a < $1")
	if err != nil {
		t.Fatal(err)
	}
	selective, err := p.Execute("3") // sel ~0.3%
	if err != nil {
		t.Fatal(err)
	}
	if _, usedIndex := indexScanStats(selective); !usedIndex {
		t.Fatal("selective prepared execution stayed on the scan path")
	}
	broad, err := p.Execute("800") // sel ~80%
	if err != nil {
		t.Fatal(err)
	}
	if _, usedIndex := indexScanStats(broad); usedIndex {
		t.Fatal("broad prepared execution used the index above the crossover")
	}
	// Counts agree with ad-hoc execution.
	adhoc, err := eng.Query("SELECT COUNT(*) FROM ev WHERE a < 3")
	if err != nil {
		t.Fatal(err)
	}
	if selective.Count != adhoc.Count {
		t.Fatalf("prepared %d != ad-hoc %d", selective.Count, adhoc.Count)
	}
}

// TestCreateIndexBumpsEpoch: cached plans must replan once an index
// appears, or a hot prepared statement would never see the new path.
func TestCreateIndexBumpsEpoch(t *testing.T) {
	eng := buildIndexEngine(t, 1<<17, 1000)
	p, err := eng.Prepare("SELECT COUNT(*) FROM ev WHERE a = $1")
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Execute("5")
	if err != nil {
		t.Fatal(err)
	}
	if _, usedIndex := indexScanStats(before); usedIndex {
		t.Fatal("index used before it exists")
	}
	if _, err := eng.Query("CREATE INDEX ON ev (a)"); err != nil {
		t.Fatal(err)
	}
	after, err := p.Execute("5")
	if err != nil {
		t.Fatal(err)
	}
	if _, usedIndex := indexScanStats(after); !usedIndex {
		t.Fatal("cached prepared plan did not replan after CREATE INDEX")
	}
	if before.Count != after.Count {
		t.Fatalf("counts diverged: %d vs %d", before.Count, after.Count)
	}
}

// TestClusterByPruning is the CLUSTER BY satellite: the same data and
// query prune ~0% of chunks unclustered and >= 90% clustered.
func TestClusterByPruning(t *testing.T) {
	const n = 1 << 20 // 16 chunks of 64Ki rows
	rng := rand.New(rand.NewSource(3))
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(rng.Intn(1 << 20))
	}
	const q = "SELECT COUNT(*) FROM t WHERE a < 1000"

	unclustered := NewEngine()
	if err := unclustered.CreateTable("t").Int32("a", vals).Finish(); err != nil {
		t.Fatal(err)
	}
	ures, err := unclustered.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	us := scanStats(t, ures)
	if us.ChunksPruned != 0 {
		t.Fatalf("unclustered pruned %d chunks, want 0", us.ChunksPruned)
	}

	clustered := NewEngine()
	if err := clustered.CreateTable("t").Int32("a", vals).ClusterBy("a").Finish(); err != nil {
		t.Fatal(err)
	}
	cres, err := clustered.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Count != ures.Count {
		t.Fatalf("clustering changed the answer: %d vs %d", cres.Count, ures.Count)
	}
	cs := scanStats(t, cres)
	if cs.ChunksPruned < 15 { // >= 90% of 16
		t.Fatalf("clustered pruned %d of 16 chunks, want >= 15", cs.ChunksPruned)
	}
}

func TestClusterByRejectsPacked(t *testing.T) {
	vals := make([]int32, 1<<16)
	for i := range vals {
		vals[i] = int32(i)
	}
	eng := NewEngine()
	err := eng.CreateTable("t").Int32("a", vals).Pack("a").ClusterBy("a").Finish()
	if err == nil || !strings.Contains(err.Error(), "before Pack") {
		t.Fatalf("err = %v, want CLUSTER BY-before-Pack rejection", err)
	}
}

// TestIndexScanPrunesCandidateWindows: on a CLUSTER BY table, the index
// path skips a window that holds candidates but that the residual's zone
// maps rule out, and counts it in ChunksPruned; a window with no candidate
// is not counted. The rows match the scan's on every config.
func TestIndexScanPrunesCandidateWindows(t *testing.T) {
	const n = 5 << 16
	rng := rand.New(rand.NewSource(50))
	s, k, v := make([]int32, n), make([]int32, n), make([]int32, n)
	for i := range s {
		s[i] = int32(rng.Intn(1000))
		k[i], v[i] = s[i], int32(rng.Intn(1000))
	}
	eng := NewEngine()
	if err := eng.CreateTable("t").Int32("s", s).Int32("k", k).Int32("v", v).
		ClusterBy("s").Index("k").Finish(); err != nil {
		t.Fatal(err)
	}
	// Clustered, window w holds s (and k) of about [200w, 200w+200): window
	// 0 has no candidate for k >= 300, and s < 500 rules out windows 3 and 4.
	const where = "FROM t WHERE k >= 300 AND s < 500"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	var configs []Config
	for _, cores := range []int{1, 2} {
		sim, native := DefaultConfig(), NativeConfig()
		sim.Cores, native.Cores = cores, cores
		configs = append(configs, sim, native)
	}
	for _, cfg := range configs {
		if err := eng.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		want, err := eng.Query("SELECT /*+ NO_INDEX */ COUNT(*), SUM(v) " + where)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query("SELECT /*+ INDEX(t k) */ COUNT(*), SUM(v) " + where)
		if err != nil {
			t.Fatal(err)
		}
		st, ok := indexScanStats(got)
		if !ok {
			t.Fatal("forced query did not run an IndexScan")
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || want.Count == 0 {
			t.Errorf("simulate=%v cores %d: index rows %v, scan rows %v", cfg.Simulate, cfg.Cores, got.Rows, want.Rows)
		}
		// Simulated or native, the two kept windows are dealt to the cores.
		if st.ChunksPruned != 2 || st.Batches != 2 || st.Cores != cfg.Cores {
			t.Errorf("simulate=%v cores %d: index scan pruned %d windows and emitted %d on %d cores, want 2 and 2",
				cfg.Simulate, cfg.Cores, st.ChunksPruned, st.Batches, st.Cores)
		}
	}
}
