package fusedscan

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fusedscan/internal/sqlparse"
)

// buildPreparedFixture builds a deterministic mixed-type table for the
// prepared-statement tests: int32 a (values 0..9 cycling), int32 b
// (0..99), float64 f (i/10), with a few NULLs in b.
func buildPreparedFixture(t *testing.T, eng *Engine, name string, n int) {
	t.Helper()
	av := make([]int32, n)
	bv := make([]int32, n)
	fv := make([]float64, n)
	for i := 0; i < n; i++ {
		av[i] = int32(i % 10)
		bv[i] = int32(i % 100)
		fv[i] = float64(i) / 10
	}
	tb := eng.CreateTable(name)
	tb.Int32("a", av)
	tb.Int32("b", bv)
	tb.Float64("f", fv)
	tb.NullsAt("b", []int{0, 7, 13})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedMatchesAdHoc is the acceptance check: a prepared EXECUTE
// must return byte-identical results to ad-hoc Engine.Query for the same
// statement, on both the simulated and the native path.
func TestPreparedMatchesAdHoc(t *testing.T) {
	cases := []struct {
		adhoc    string
		prepared string
		args     []string
	}{
		{
			"SELECT COUNT(*) FROM t WHERE a = 5 AND b = 25",
			"SELECT COUNT(*) FROM t WHERE a = $1 AND b = $2",
			[]string{"5", "25"},
		},
		{
			"SELECT a, b FROM t WHERE a = 3 AND b < 40 ORDER BY b LIMIT 7",
			"SELECT a, b FROM t WHERE a = $1 AND b < $2 ORDER BY b LIMIT 7",
			[]string{"3", "40"},
		},
		{
			"SELECT SUM(f), MIN(b), MAX(a) FROM t WHERE b BETWEEN 10 AND 30",
			"SELECT SUM(f), MIN(b), MAX(a) FROM t WHERE b BETWEEN $1 AND $2",
			[]string{"10", "30"},
		},
		{
			"SELECT b FROM t WHERE f > 12.5 AND a <> 4 AND b IS NOT NULL LIMIT 9",
			"SELECT b FROM t WHERE f > $1 AND a <> $2 AND b IS NOT NULL LIMIT 9",
			[]string{"12.5", "4"},
		},
		{
			// Mixed: one literal stays inline, one becomes a parameter.
			"SELECT COUNT(*) FROM t WHERE a >= 2 AND b <= 77",
			"SELECT COUNT(*) FROM t WHERE a >= 2 AND b <= $1",
			[]string{"77"},
		},
	}
	for _, cfgName := range []string{"default", "native"} {
		eng := NewEngine()
		buildPreparedFixture(t, eng, "t", 2000)
		if cfgName == "native" {
			if err := eng.SetConfig(NativeConfig()); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range cases {
			want, err := eng.Query(tc.adhoc)
			if err != nil {
				t.Fatalf("[%s] ad-hoc %q: %v", cfgName, tc.adhoc, err)
			}
			prep, err := eng.Prepare(tc.prepared)
			if err != nil {
				t.Fatalf("[%s] prepare %q: %v", cfgName, tc.prepared, err)
			}
			got, err := prep.Execute(tc.args...)
			if err != nil {
				t.Fatalf("[%s] execute %q %v: %v", cfgName, tc.prepared, tc.args, err)
			}
			if got.Count != want.Count || got.Sum != want.Sum || got.Aggregate != want.Aggregate ||
				!reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("[%s] prepared result diverges for %q args %v:\n  ad-hoc: count=%d sum=%q cols=%v rows=%v\n  prepared: count=%d sum=%q cols=%v rows=%v",
					cfgName, tc.prepared, tc.args,
					want.Count, want.Sum, want.Columns, want.Rows,
					got.Count, got.Sum, got.Columns, got.Rows)
			}
			// QueryWith with Args must agree too (same cache path, ad-hoc
			// text).
			viaArgs, err := eng.QueryWith(nil, tc.prepared, QueryOptions{Args: tc.args})
			if err != nil {
				t.Fatalf("[%s] QueryWith %q: %v", cfgName, tc.prepared, err)
			}
			if viaArgs.Count != want.Count || !reflect.DeepEqual(viaArgs.Rows, want.Rows) {
				t.Errorf("[%s] QueryWith(Args) diverges for %q: count %d vs %d", cfgName, tc.prepared, viaArgs.Count, want.Count)
			}
		}
	}
}

// TestPlanCacheCounters pins the skip-parse/skip-build contract: Prepare
// records exactly one miss (planting the skeleton), and every Execute
// afterwards is a hit.
func TestPlanCacheCounters(t *testing.T) {
	eng := NewEngine()
	buildPreparedFixture(t, eng, "t", 500)
	base := eng.Stats()
	prep, err := eng.Prepare("SELECT COUNT(*) FROM t WHERE a = $1")
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.PlanCacheMisses != base.PlanCacheMisses+1 {
		t.Fatalf("prepare: misses %d -> %d, want +1", base.PlanCacheMisses, s.PlanCacheMisses)
	}
	if s.PlanCacheSize != 1 {
		t.Fatalf("plan cache size = %d, want 1", s.PlanCacheSize)
	}
	for i := 0; i < 3; i++ {
		if _, err := prep.Execute("4"); err != nil {
			t.Fatal(err)
		}
	}
	s = eng.Stats()
	if s.PlanCacheHits != base.PlanCacheHits+3 {
		t.Fatalf("executes: hits %d -> %d, want +3", base.PlanCacheHits, s.PlanCacheHits)
	}
	if s.PlanCacheMisses != base.PlanCacheMisses+1 {
		t.Fatalf("executes caused extra misses: %d -> %d", base.PlanCacheMisses, s.PlanCacheMisses)
	}
	// A second Prepare of a differently-spelled statement with the same
	// shape shares the cached skeleton (hit, not miss).
	if _, err := eng.Prepare("select count(*) from t where a = $1"); err != nil {
		t.Fatal(err)
	}
	s2 := eng.Stats()
	if s2.PlanCacheMisses != s.PlanCacheMisses {
		t.Errorf("same-shape prepare missed: %d -> %d", s.PlanCacheMisses, s2.PlanCacheMisses)
	}
	if s2.PlanCacheHits != s.PlanCacheHits+1 {
		t.Errorf("same-shape prepare did not hit: %d -> %d", s.PlanCacheHits, s2.PlanCacheHits)
	}
	// An ad hoc query plans through the same cache: its shape is the
	// prepared one, so it records a hit.
	if _, err := eng.Query("SELECT COUNT(*) FROM t WHERE a = 4"); err != nil {
		t.Fatal(err)
	}
	s3 := eng.Stats()
	if s3.PlanCacheHits != s2.PlanCacheHits+1 || s3.PlanCacheMisses != s2.PlanCacheMisses {
		t.Errorf("ad-hoc query of a cached shape: hits %d->%d misses %d->%d, want one hit",
			s2.PlanCacheHits, s3.PlanCacheHits, s2.PlanCacheMisses, s3.PlanCacheMisses)
	}
}

// TestReregisterInvalidatesPreparedPlans is the epoch-fix satellite: a
// statement prepared against a table that is then dropped and re-registered
// under the same name must never serve the stale plan — it replans against
// the new table and returns its data.
func TestReregisterInvalidatesPreparedPlans(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("a", []int32{1, 1, 1, 2})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare("SELECT COUNT(*) FROM t WHERE a = $1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Execute("1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Fatalf("old table: count = %d, want 3", res.Count)
	}
	epochBefore := eng.Stats().CatalogEpoch

	if !eng.DropTable("t") {
		t.Fatal("DropTable returned false for a registered table")
	}
	tb2 := eng.CreateTable("t")
	tb2.Int32("a", []int32{1, 7, 7, 7, 7, 7})
	if err := tb2.Finish(); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.CatalogEpoch != epochBefore+2 {
		t.Fatalf("epoch %d -> %d, want +2 (drop + register)", epochBefore, s.CatalogEpoch)
	}
	if s.PlanCacheInvalidations == 0 {
		t.Fatal("re-registration did not invalidate cached plans")
	}
	if s.PlanCacheSize != 0 {
		t.Fatalf("plan cache still holds %d entries after invalidation", s.PlanCacheSize)
	}

	// The same Prepared handle replans transparently and sees the new data.
	res, err = prep.Execute("7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 5 {
		t.Fatalf("new table: count = %d, want 5 (stale plan served?)", res.Count)
	}
	res, err = prep.Execute("1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("new table: count = %d, want 1 (stale plan served?)", res.Count)
	}
}

// TestReregisterRefreshesStatistics: statistics belong to the registered
// columns, so a table dropped and registered again under the same name is
// planned against its own data. The old table's range [1, 2] must not
// prune a literal of the new one, ad hoc or prepared.
func TestReregisterRefreshesStatistics(t *testing.T) {
	for _, cfgName := range []string{"default", "native"} {
		eng := NewEngine()
		if cfgName == "native" {
			if err := eng.SetConfig(NativeConfig()); err != nil {
				t.Fatal(err)
			}
		}
		register := func(vals []int32) {
			t.Helper()
			if err := eng.CreateTable("t").Int32("a", vals).Finish(); err != nil {
				t.Fatal(err)
			}
		}
		count := func(run func() (*Result, error), want int64, what string) {
			t.Helper()
			res, err := run()
			if err != nil {
				t.Fatalf("[%s] %s: %v", cfgName, what, err)
			}
			if res.Count != want {
				t.Errorf("[%s] %s: count = %d, want %d", cfgName, what, res.Count, want)
			}
		}
		register([]int32{1, 1, 1, 2})
		count(func() (*Result, error) { return eng.Query("SELECT COUNT(*) FROM t WHERE a = 1") }, 3, "old table, ad hoc")
		prep, err := eng.Prepare("SELECT COUNT(*) FROM t WHERE a = $1")
		if err != nil {
			t.Fatal(err)
		}
		count(func() (*Result, error) { return prep.Execute("2") }, 1, "old table, prepared")

		if !eng.DropTable("t") {
			t.Fatal("DropTable returned false for a registered table")
		}
		register([]int32{1, 7, 7, 7, 7, 7})
		count(func() (*Result, error) { return eng.Query("SELECT COUNT(*) FROM t WHERE a = 7") }, 5, "new table, ad hoc")
		count(func() (*Result, error) { return prep.Execute("7") }, 5, "new table, prepared")
	}
}

// TestSetConfigInvalidatesPreparedPlans: a config switch bumps the epoch,
// so cached plans replan and the executions stay correct across paths.
func TestSetConfigInvalidatesPreparedPlans(t *testing.T) {
	eng := NewEngine()
	buildPreparedFixture(t, eng, "t", 1000)
	prep, err := eng.Prepare("SELECT COUNT(*) FROM t WHERE b = $1")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := prep.Execute("42")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetConfig(NativeConfig()); err != nil {
		t.Fatal(err)
	}
	if inv := eng.Stats().PlanCacheInvalidations; inv == 0 {
		t.Fatal("SetConfig did not invalidate cached plans")
	}
	r2, err := prep.Execute("42")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != r2.Count {
		t.Fatalf("counts diverged across config switch: %d vs %d", r1.Count, r2.Count)
	}
	if r2.Report != nil {
		t.Fatal("native execution still carries a simulated report")
	}
}

// TestPlanCacheEviction: capacity bounds the cache LRU-first.
func TestPlanCacheEviction(t *testing.T) {
	eng := NewEngine()
	buildPreparedFixture(t, eng, "t", 200)
	eng.SetPlanCacheCapacity(2)
	// Literals normalize into parameters, so distinct shapes need distinct
	// structure, not distinct constants.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE a = $1",
		"SELECT COUNT(*) FROM t WHERE b = $1",
		"SELECT SUM(f) FROM t WHERE a = $1",
		"SELECT MIN(b) FROM t WHERE a = $1",
	} {
		if _, err := eng.Prepare(sql); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.PlanCacheSize > 2 {
		t.Fatalf("cache size %d exceeds capacity 2", s.PlanCacheSize)
	}
	if s.PlanCacheEvictions < 2 {
		t.Fatalf("evictions = %d, want >= 2", s.PlanCacheEvictions)
	}
}

// TestUnboundParamsRejected: ad-hoc execution refuses statements with
// placeholders and points at Prepare.
func TestUnboundParamsRejected(t *testing.T) {
	eng := NewEngine()
	buildPreparedFixture(t, eng, "t", 100)
	_, err := eng.Query("SELECT COUNT(*) FROM t WHERE a = $1")
	if err == nil || !strings.Contains(err.Error(), "Prepare") {
		t.Fatalf("expected an unbound-parameter error mentioning Prepare, got %v", err)
	}
}

// TestPreparedArgumentErrors: arity and type mismatches fail cleanly
// without disturbing the cached skeleton.
func TestPreparedArgumentErrors(t *testing.T) {
	eng := NewEngine()
	buildPreparedFixture(t, eng, "t", 100)
	prep, err := eng.Prepare("SELECT COUNT(*) FROM t WHERE a = $1 AND b = $2")
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.NumParams(); got != 2 {
		t.Fatalf("NumParams = %d, want 2", got)
	}
	if _, err := prep.Execute("1"); err == nil {
		t.Fatal("expected an arity error for 1 of 2 arguments")
	}
	if _, err := prep.Execute("1", "not-a-number"); err == nil {
		t.Fatal("expected a parse error binding a non-numeric argument to an int column")
	}
	// The statement still works after the failures.
	if _, err := prep.Execute("1", "2"); err != nil {
		t.Fatalf("execute after failed binds: %v", err)
	}
	var qe *QueryError
	if _, err := prep.Execute("1", "x"); !errors.As(err, &qe) && err == nil {
		t.Fatal("expected an error")
	}
	// DDL takes no arguments.
	if _, err := eng.QueryWith(context.Background(), "CREATE INDEX ON t (a)", QueryOptions{Args: []string{"1"}}); err == nil {
		t.Fatal("DDL with arguments accepted")
	}
	if eng.LookupIndex("t", "a") != nil {
		t.Fatal("DDL with arguments built an index")
	}
}

// TestQueryWithStream: streaming delivers exactly the rows a buffered
// execution returns, Result.Rows stays empty for streamed projections, and
// aggregates arrive through the same callback.
func TestQueryWithStream(t *testing.T) {
	eng := NewEngine()
	buildPreparedFixture(t, eng, "t", 1000)
	const sql = "SELECT a, b FROM t WHERE a = 5 AND b IS NOT NULL ORDER BY b LIMIT 20"
	want, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var streamed [][]string
	var cols []string
	res, err := eng.QueryWith(nil, sql, QueryOptions{Stream: func(columns []string, rows [][]string) error {
		cols = columns
		streamed = append(streamed, rows...)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("streamed execution still buffered %d rows", len(res.Rows))
	}
	if !reflect.DeepEqual(cols, want.Columns) || !reflect.DeepEqual(streamed, want.Rows) {
		t.Fatalf("streamed rows diverge:\n got %v %v\nwant %v %v", cols, streamed, want.Columns, want.Rows)
	}
	if res.Count != want.Count {
		t.Fatalf("count %d, want %d", res.Count, want.Count)
	}

	// Aggregate: one row via the callback.
	streamed, cols = nil, nil
	aggRes, err := eng.QueryWith(nil, "SELECT SUM(f) FROM t WHERE a = 5", QueryOptions{Stream: func(columns []string, rows [][]string) error {
		cols = columns
		streamed = append(streamed, rows...)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !aggRes.Aggregate || len(aggRes.Rows) != 0 {
		t.Fatalf("aggregate stream left rows buffered: %+v", aggRes.Rows)
	}
	if len(streamed) != 1 || len(cols) != 1 || !strings.HasPrefix(cols[0], "sum(") {
		t.Fatalf("aggregate stream delivered %v under %v", streamed, cols)
	}
}

// TestStreamLiftsMaterializationCap: without a LIMIT, buffered execution
// caps materialized rows (memory guard) while a streaming execution
// delivers every qualifying row.
func TestStreamLiftsMaterializationCap(t *testing.T) {
	const n = 150_000
	eng := NewEngine()
	if err := eng.SetConfig(NativeConfig()); err != nil {
		t.Fatal(err)
	}
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i)
	}
	tb := eng.CreateTable("big")
	tb.Int32("x", vals)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	buffered, err := eng.Query("SELECT x FROM big WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if buffered.Count != n {
		t.Fatalf("count = %d, want %d", buffered.Count, n)
	}
	if len(buffered.Rows) >= n {
		t.Fatalf("buffered execution materialized all %d rows; expected the cap to clip it", n)
	}
	var got int
	res, err := eng.QueryWith(nil, "SELECT x FROM big WHERE x >= 0", QueryOptions{Stream: func(_ []string, rows [][]string) error {
		got += len(rows)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got != n || res.Count != int64(n) {
		t.Fatalf("streamed %d rows (count %d), want %d", got, res.Count, n)
	}
}

// buildPlanEquivalenceEngine registers the tables the BENCH_SMOKE.json
// statements name — demo(a, b, c, d) and dim(d, v, w) — plus an indexed
// key k on demo and a bit-packed twin pdemo. a, b and c are increasingly
// selective, so the optimizer reverses their source order.
func buildPlanEquivalenceEngine(t *testing.T) *Engine {
	t.Helper()
	const n, dimN = 70_000, 2048
	rng := rand.New(rand.NewSource(11))
	a, b, c, d, k := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	for i := range n {
		a[i], b[i], c[i], d[i] = int32(rng.Intn(2)+4), int32(rng.Intn(10)), int32(rng.Intn(100)), int32(rng.Intn(1000))
		k[i] = int32(i)
	}
	eng := NewEngine()
	if err := eng.CreateTable("demo").Int32("a", a).Int32("b", b).Int32("c", c).Int32("d", d).Int32("k", k).
		Index("k").Finish(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateTable("pdemo").Int32("a", a).Int32("c", c).Pack().Finish(); err != nil {
		t.Fatal(err)
	}
	dd, dv, dw := make([]int32, dimN), make([]int32, dimN), make([]int32, dimN)
	for i := range dimN {
		dd[i], dv[i], dw[i] = int32(rng.Intn(1000)), int32(rng.Intn(1000)), int32(rng.Intn(100))
	}
	if err := eng.CreateTable("dim").Int32("d", dd).Int32("v", dv).Int32("w", dw).Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPreparedPlansMatchAdHoc: a statement runs the same plan whether it
// arrives with its literals (Query), as its shape with Args (QueryWith) or
// as a prepared shape (Prepare + Execute) — the same physical operators in
// the same order, the same operator counters, and under DefaultConfig the
// same simulated counters.
func TestPreparedPlansMatchAdHoc(t *testing.T) {
	raw, err := os.ReadFile("BENCH_SMOKE.json")
	if err != nil {
		t.Fatal(err)
	}
	var smoke struct {
		Results []struct{ SQL string }
	}
	if err := json.Unmarshal(raw, &smoke); err != nil {
		t.Fatal(err)
	}
	var stmts []string
	for _, r := range smoke.Results {
		if !slices.Contains(stmts, r.SQL) {
			stmts = append(stmts, r.SQL)
		}
	}
	stmts = append(stmts,
		"SELECT COUNT(*) FROM demo WHERE b < 1 AND b > 3",      // contradiction
		"SELECT COUNT(*) FROM pdemo WHERE a = 5 AND c < 1000",  // packed always-true literal
		"SELECT COUNT(*) FROM pdemo WHERE a = 5 AND c > 5000",  // packed always-false literal
		"SELECT COUNT(*) FROM demo WHERE c = 999",              // outside [min, max]
		"SELECT a, d FROM demo WHERE k = 4321",                 // index point lookup
		"SELECT /*+ NO_INDEX */ a, d FROM demo WHERE k = 4321", // hint
		"SELECT COUNT(*) FROM demo WHERE a = 5 AND b BETWEEN 2 AND 4 AND c < 20",
		"SELECT a, b, c FROM demo WHERE a = 4 AND c = 7 LIMIT 5",
		"SELECT dim.w, COUNT(*) FROM demo JOIN dim ON demo.d = dim.d WHERE demo.a = 5 AND demo.c < 3 AND dim.v < 700 GROUP BY dim.w",
	)
	eng := buildPlanEquivalenceEngine(t)
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"native", NativeConfig()}} {
		if err := eng.SetConfig(cfg.cfg); err != nil {
			t.Fatal(err)
		}
		for _, sql := range stmts {
			sel, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			shape, slots := sqlparse.Normalize(sel)
			args := make([]string, len(slots))
			for i, s := range slots {
				args[i] = s.Literal
			}
			prep, err := eng.Prepare(shape)
			if err != nil {
				t.Fatalf("[%s] prepare %q: %v", cfg.name, shape, err)
			}
			runs := []struct {
				entry string
				run   func() (*Result, error)
			}{
				{"Query", func() (*Result, error) { return eng.Query(sql) }},
				{"QueryWith(Args)", func() (*Result, error) {
					return eng.QueryWith(context.Background(), shape, QueryOptions{Args: args})
				}},
				{"Prepared.Execute", func() (*Result, error) { return prep.Execute(args...) }},
			}
			var want *Result
			for _, r := range runs {
				res, err := r.run()
				if err != nil {
					t.Fatalf("[%s] %s %q: %v", cfg.name, r.entry, sql, err)
				}
				for i := range res.Operators {
					res.Operators[i].WallNs = 0
				}
				if res.Report != nil {
					// JIT operator-cache bookkeeping depends on what ran
					// before, not on the plan.
					res.Report.CompileTimeMicros, res.Report.OperatorCacheHits, res.Report.OperatorCacheSize = 0, 0, 0
				}
				if want == nil {
					ex, err := eng.ExplainQuery(sql)
					if err != nil {
						t.Fatal(err)
					}
					if got := physicalFormat(res.Operators); got != ex.PhysicalPlan {
						t.Errorf("[%s] %q: operators render\n%s  EXPLAIN shows\n%s", cfg.name, sql, got, ex.PhysicalPlan)
					}
					want = res
					continue
				}
				if got, exp := physicalFormat(res.Operators), physicalFormat(want.Operators); got != exp {
					t.Errorf("[%s] %q: %s runs\n%s  Query runs\n%s", cfg.name, sql, r.entry, got, exp)
					continue
				}
				if !reflect.DeepEqual(res.Operators, want.Operators) {
					t.Errorf("[%s] %q: %s operators %+v, Query's %+v", cfg.name, sql, r.entry, res.Operators, want.Operators)
				}
				if !reflect.DeepEqual(res.Report, want.Report) {
					t.Errorf("[%s] %q: %s report %+v, Query's %+v", cfg.name, sql, r.entry, res.Report, want.Report)
				}
				if res.Count != want.Count || !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Errorf("[%s] %q: %s count %d, Query's %d", cfg.name, sql, r.entry, res.Count, want.Count)
				}
			}
		}
	}
}

// physicalFormat renders operator stats as pqp.Plan.Format renders the
// plan they ran: one Describe line per operator, indented by depth.
func physicalFormat(ops []OperatorStats) string {
	var sb strings.Builder
	for i, op := range ops {
		if i > 0 && op.Depth > ops[i-1].Depth+1 {
			sb.WriteString(strings.Repeat("  ", op.Depth-1) + "Build:\n")
		}
		sb.WriteString(strings.Repeat("  ", op.Depth) + op.Name + "\n")
	}
	return sb.String()
}
