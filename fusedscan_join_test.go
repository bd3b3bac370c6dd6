package fusedscan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// buildJoinEngine creates an engine with a deterministic fact table f
// (6000 rows: join key k with duplicates and NULLs, residual column u,
// group column x) and dimension table d (400 rows: key k, residual v,
// measure y). Returns the engine plus the raw data for oracle use.
type joinEngineData struct {
	fk     []int64
	fkNull map[int]bool
	fu     []int32
	fx     []int32
	dk     []int64
	dkNull map[int]bool
	dv     []int32
	dy     []int64
}

func buildJoinEngine(t *testing.T) (*Engine, *joinEngineData) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	d := &joinEngineData{fkNull: map[int]bool{}, dkNull: map[int]bool{}}
	const factN, dimN = 6000, 400
	var fkNullRows, dkNullRows []int
	for i := 0; i < factN; i++ {
		d.fk = append(d.fk, int64(rng.Intn(150)))
		d.fu = append(d.fu, int32(rng.Intn(7)))
		d.fx = append(d.fx, int32(rng.Intn(4)))
		if rng.Intn(37) == 0 {
			d.fkNull[i] = true
			fkNullRows = append(fkNullRows, i)
		}
	}
	for i := 0; i < dimN; i++ {
		d.dk = append(d.dk, int64(i%120)) // duplicate keys fan out
		d.dv = append(d.dv, int32(rng.Intn(11)))
		d.dy = append(d.dy, int64(i*3))
		if rng.Intn(29) == 0 {
			d.dkNull[i] = true
			dkNullRows = append(dkNullRows, i)
		}
	}
	eng := NewEngine()
	fb := eng.CreateTable("f")
	fb.Int64("k", d.fk)
	fb.Int32("u", d.fu)
	fb.Int32("x", d.fx)
	fb.NullsAt("k", fkNullRows)
	if err := fb.Finish(); err != nil {
		t.Fatal(err)
	}
	db := eng.CreateTable("d")
	db.Int64("k", d.dk)
	db.Int32("v", d.dv)
	db.Int64("y", d.dy)
	db.NullsAt("k", dkNullRows)
	if err := db.Finish(); err != nil {
		t.Fatal(err)
	}
	return eng, d
}

// oracleJoinGroupSums is the independent scalar nested-loop oracle for
// the canonical query: SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k
// AND f.u < d.v WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x. NULL keys
// never match.
func oracleJoinGroupSums(d *joinEngineData) [][]string {
	sums := map[int32]int64{}
	for i := range d.fk {
		if d.fkNull[i] || d.fx[i] < 1 {
			continue
		}
		for j := range d.dk {
			if d.dkNull[j] || d.dv[j] > 8 {
				continue
			}
			if d.fk[i] == d.dk[j] && d.fu[i] < d.dv[j] {
				sums[d.fx[i]] += d.dy[j]
			}
		}
	}
	keys := make([]int32, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	var rows [][]string
	for _, k := range keys {
		rows = append(rows, []string{
			strconv.FormatInt(int64(k), 10),
			strconv.FormatInt(sums[k], 10),
		})
	}
	return rows
}

// TestQueryJoinGroupByEndToEnd is the acceptance-criteria query: a join
// with a residual col-vs-col predicate, per-side WHERE filters and a
// grouped SUM, executed through the public engine API on both the
// default (emulated) and native configs, checked against the scalar
// oracle, with join/Bloom/group counters visible in Result.Operators
// and the engine-wide stats.
func TestQueryJoinGroupByEndToEnd(t *testing.T) {
	eng, data := buildJoinEngine(t)
	const q = "SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k AND f.u < d.v WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x"
	want := oracleJoinGroupSums(data)

	native := NativeConfig()
	configs := []struct {
		name string
		cfg  *Config
	}{
		{"default", nil},
		{"native", &native},
	}
	for _, tc := range configs {
		res, err := eng.QueryWith(context.Background(), q, QueryOptions{Config: tc.cfg})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if wantCols := []string{"f.x", "sum(d.y)"}; !reflect.DeepEqual(res.Columns, wantCols) {
			t.Fatalf("%s: columns = %v, want %v", tc.name, res.Columns, wantCols)
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("%s: rows = %v, want %v (oracle)", tc.name, res.Rows, want)
		}

		var sawJoin, sawBloom, sawGroups, sawDepth2 bool
		for _, op := range res.Operators {
			if op.BuildRows > 0 && op.ProbeRows > 0 {
				sawJoin = true
			}
			if op.BloomChecks > 0 {
				sawBloom = true
				if op.BloomPass > op.BloomChecks {
					t.Errorf("%s: BloomPass %d > BloomChecks %d", tc.name, op.BloomPass, op.BloomChecks)
				}
			}
			if op.Groups > 0 {
				sawGroups = true
			}
			if op.Depth == 2 {
				sawDepth2 = true
			}
		}
		if !sawJoin || !sawBloom || !sawGroups || !sawDepth2 {
			t.Errorf("%s: operator stats missing join=%v bloom=%v groups=%v depth2=%v: %+v",
				tc.name, sawJoin, sawBloom, sawGroups, sawDepth2, res.Operators)
		}
	}

	st := eng.Stats()
	if st.JoinBuildRows <= 0 || st.JoinProbeRows <= 0 {
		t.Errorf("EngineStats join rows = build %d probe %d, want > 0", st.JoinBuildRows, st.JoinProbeRows)
	}
	if st.JoinBloomChecks <= 0 || st.JoinBloomPass > st.JoinBloomChecks {
		t.Errorf("EngineStats bloom = %d/%d checks, want checks > 0 and pass <= checks",
			st.JoinBloomPass, st.JoinBloomChecks)
	}
	if st.GroupsProduced <= 0 {
		t.Errorf("EngineStats GroupsProduced = %d, want > 0", st.GroupsProduced)
	}
}

// TestFloat32NegativeZeroKeys: float32 -0 and +0 are one join key — in the
// hash table, in the Bloom prefilter inside the probe scan (probe WHERE)
// and at the join (no probe WHERE) — and one group in the GROUP BY sink,
// which renders the group's first-seen key.
func TestFloat32NegativeZeroKeys(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	eng := NewEngine()
	fb := eng.CreateTable("f")
	fb.Float32("k", []float32{negZero, 0, 1, negZero, 2})
	fb.Int32("u", []int32{1, 1, 1, 1, 1})
	if err := fb.Finish(); err != nil {
		t.Fatal(err)
	}
	db := eng.CreateTable("d")
	db.Float32("k", []float32{0, 3, negZero})
	db.Int64("y", []int64{10, 20, 30})
	if err := db.Finish(); err != nil {
		t.Fatal(err)
	}
	native := NativeConfig()
	for _, tc := range []struct{ sql, want string }{
		// Each of f's three zeros matches both of d's zeros.
		{"SELECT COUNT(*), SUM(d.y) FROM f JOIN d ON f.k = d.k", "[[6 120]]"},
		{"SELECT COUNT(*), SUM(d.y) FROM f JOIN d ON f.k = d.k WHERE f.u >= 1", "[[6 120]]"},
		{"SELECT f.k, COUNT(*) FROM f JOIN d ON f.k = d.k GROUP BY f.k", "[[-0 6]]"},
		{"SELECT k, COUNT(*) FROM f GROUP BY k", "[[-0 3] [1 1] [2 1]]"},
	} {
		for _, cfg := range []*Config{nil, &native} {
			res, err := eng.QueryWith(context.Background(), tc.sql, QueryOptions{Config: cfg})
			if err != nil {
				t.Fatalf("%q: %v", tc.sql, err)
			}
			if got := fmt.Sprint(res.Rows); got != tc.want {
				t.Errorf("%q (native=%v): rows = %s, want %s", tc.sql, cfg != nil, got, tc.want)
			}
		}
	}
}

// TestPrepareJoinStalePlanPurge drops and re-registers one side of a
// prepared join and asserts the epoch purge: the cached join plan is
// invalidated and the same Prepared handle replans against the new
// dimension data instead of serving the stale build side.
func TestPrepareJoinStalePlanPurge(t *testing.T) {
	eng := NewEngine()
	fb := eng.CreateTable("f")
	fb.Int64("k", []int64{1, 2, 3, 1, 2})
	fb.Int32("x", []int32{0, 0, 1, 1, 1})
	if err := fb.Finish(); err != nil {
		t.Fatal(err)
	}
	db := eng.CreateTable("d")
	db.Int64("k", []int64{1, 2})
	db.Int32("v", []int32{5, 5})
	if err := db.Finish(); err != nil {
		t.Fatal(err)
	}

	prep, err := eng.Prepare("SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE d.v = $1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Execute("5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 { // keys 1,2 each match two fact rows
		t.Fatalf("old dimension: count = %d, want 4", res.Count)
	}
	epochBefore := eng.Stats().CatalogEpoch

	// Drop and re-register the build side with different keys.
	if !eng.DropTable("d") {
		t.Fatal("DropTable returned false for a registered table")
	}
	db2 := eng.CreateTable("d")
	db2.Int64("k", []int64{3, 3})
	db2.Int32("v", []int32{5, 9})
	if err := db2.Finish(); err != nil {
		t.Fatal(err)
	}

	s := eng.Stats()
	if s.CatalogEpoch != epochBefore+2 {
		t.Fatalf("epoch %d -> %d, want +2 (drop + register)", epochBefore, s.CatalogEpoch)
	}
	if s.PlanCacheInvalidations == 0 {
		t.Fatal("re-registering a join side did not invalidate cached plans")
	}
	if s.PlanCacheSize != 0 {
		t.Fatalf("plan cache still holds %d entries after invalidation", s.PlanCacheSize)
	}

	// The same handle replans: key 3 now matches, and only one of the
	// two duplicate build rows passes d.v = 5.
	res, err = prep.Execute("5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("new dimension: count = %d, want 1 (stale plan served?)", res.Count)
	}
}

// TestQueryJoinBuildMemoryBudget: the hash-join build table is charged
// to the govern Accountant, so an over-budget build fails with the
// typed ErrMemoryBudget — never an OOM — and succeeds once raised.
func TestQueryJoinBuildMemoryBudget(t *testing.T) {
	eng := NewEngine()
	const factN, dimN = 500, 20000
	fk := make([]int64, factN)
	fx := make([]int32, factN)
	for i := range fk {
		fk[i] = int64(i % 100)
	}
	dk := make([]int64, dimN)
	dy := make([]int64, dimN)
	for i := range dk {
		dk[i] = int64(i) // all distinct: ~dimN hash entries charged
		dy[i] = int64(i)
	}
	fb := eng.CreateTable("f")
	fb.Int64("k", fk)
	fb.Int32("x", fx)
	if err := fb.Finish(); err != nil {
		t.Fatal(err)
	}
	db := eng.CreateTable("d")
	db.Int64("k", dk)
	db.Int64("y", dy)
	if err := db.Finish(); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k GROUP BY f.x"
	g := DefaultGovernance()
	g.MemBudgetBytes = 256 << 10 // build needs ~20000*48B ≈ 940KiB
	eng.SetGovernance(g)
	_, err := eng.Query(q)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	var me *MemoryBudgetError
	if !errors.As(err, &me) {
		t.Fatalf("err = %T, want *MemoryBudgetError", err)
	}
	if st := eng.Stats(); st.MemBudgetDenials < 1 {
		t.Errorf("Stats().MemBudgetDenials = %d, want >= 1", st.MemBudgetDenials)
	}

	g.MemBudgetBytes = 64 << 20
	eng.SetGovernance(g)
	res, err := eng.Query(q)
	if err != nil {
		t.Fatalf("join under generous budget: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 group", len(res.Rows))
	}
}

// --- differential fuzzer -------------------------------------------------

// fuzzJoinTables is one randomly generated schema instance: keys are
// held canonically as float64 (exact for the small integer domains used)
// so the oracle's == comparison is type-agnostic; NaN keys compare
// unequal to everything, matching SQL NULL/NaN join semantics.
type fuzzJoinTables struct {
	keyKind int // 0=int32 1=int64 2=float64 3=float32 (NaN and -0 keys possible)
	fKey    []float64
	fNull   []bool
	fu      []int32
	fx      []int32
	dKey    []float64
	dNull   []bool
	dv      []int32
	dy      []int64
}

func genFuzzJoinTables(rng *rand.Rand, factRows, dimRows int) *fuzzJoinTables {
	ft := &fuzzJoinTables{keyKind: rng.Intn(4)}
	domain := rng.Intn(60) + 2 // small domain: duplicates and misses
	genKey := func() (float64, bool) {
		if rng.Intn(13) == 0 {
			return 0, true // NULL key
		}
		if ft.keyKind >= 2 && rng.Intn(11) == 0 {
			return math.NaN(), false // NaN key: never matches
		}
		k := float64(rng.Intn(domain))
		if ft.keyKind >= 2 && k == 0 && rng.Intn(2) == 0 {
			k = math.Copysign(0, -1) // -0 equals +0
		}
		return k, false
	}
	for i := 0; i < factRows; i++ {
		k, null := genKey()
		ft.fKey = append(ft.fKey, k)
		ft.fNull = append(ft.fNull, null)
		ft.fu = append(ft.fu, int32(rng.Intn(9)))
		ft.fx = append(ft.fx, int32(rng.Intn(4)))
	}
	for i := 0; i < dimRows; i++ {
		k, null := genKey()
		ft.dKey = append(ft.dKey, k)
		ft.dNull = append(ft.dNull, null)
		ft.dv = append(ft.dv, int32(rng.Intn(9)))
		ft.dy = append(ft.dy, rng.Int63n(1000))
	}
	return ft
}

func (ft *fuzzJoinTables) register(t *testing.T, eng *Engine) {
	t.Helper()
	addKey := func(b *TableBuilder, keys []float64, nulls []bool) {
		switch ft.keyKind {
		case 0:
			vals := make([]int32, len(keys))
			for i, k := range keys {
				vals[i] = int32(k)
			}
			b.Int32("k", vals)
		case 1:
			vals := make([]int64, len(keys))
			for i, k := range keys {
				vals[i] = int64(k)
			}
			b.Int64("k", vals)
		case 2:
			b.Float64("k", append([]float64(nil), keys...))
		default:
			vals := make([]float32, len(keys))
			for i, k := range keys {
				vals[i] = float32(k)
			}
			b.Float32("k", vals)
		}
		var nullRows []int
		for i, n := range nulls {
			if n {
				nullRows = append(nullRows, i)
			}
		}
		b.NullsAt("k", nullRows)
	}
	fb := eng.CreateTable("f")
	addKey(fb, ft.fKey, ft.fNull)
	fb.Int32("u", ft.fu)
	fb.Int32("x", ft.fx)
	if err := fb.Finish(); err != nil {
		t.Fatal(err)
	}
	db := eng.CreateTable("d")
	addKey(db, ft.dKey, ft.dNull)
	db.Int32("v", ft.dv)
	db.Int64("y", ft.dy)
	if err := db.Finish(); err != nil {
		t.Fatal(err)
	}
}

// fuzzJoinQuery is a randomly drawn query shape over the fuzz tables.
type fuzzJoinQuery struct {
	grouped    bool   // GROUP BY f.x with SUM(d.y), else zero-key COUNT(*), SUM(d.y)
	residualOp string // "", "<", "<=", ">", ">=": f.u OP d.v in the ON clause
	probeMin   int32  // f.u >= probeMin in WHERE (-1: absent)
	buildMax   int32  // d.v <= buildMax in WHERE (-1: absent)
	// probeDead and buildDead add, after that side's satisfiable bound, a
	// bound outside the column's range (f.x = 77, d.y > 5000): the
	// optimizer prunes the side's whole run and collapses the join.
	probeDead, buildDead bool
}

func genFuzzJoinQuery(rng *rand.Rand) fuzzJoinQuery {
	q := fuzzJoinQuery{grouped: rng.Intn(3) != 0, probeMin: -1, buildMax: -1}
	q.residualOp = []string{"", "<", "<=", ">", ">="}[rng.Intn(5)]
	if rng.Intn(2) == 0 {
		q.probeMin = int32(rng.Intn(5))
	}
	if rng.Intn(2) == 0 {
		q.buildMax = int32(rng.Intn(8))
	}
	switch rng.Intn(5) {
	case 0:
		q.probeDead = true
		if q.probeMin < 0 {
			q.probeMin = int32(rng.Intn(5))
		}
	case 1:
		q.buildDead = true
		if q.buildMax < 0 {
			q.buildMax = int32(rng.Intn(8))
		}
	}
	return q
}

func (q fuzzJoinQuery) sql() string {
	sel, group := "SELECT COUNT(*), SUM(d.y) FROM f JOIN d ON f.k = d.k", ""
	if q.grouped {
		sel = "SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k"
		group = " GROUP BY f.x"
	}
	if q.residualOp != "" {
		sel += " AND f.u " + q.residualOp + " d.v"
	}
	var where []string
	if q.probeMin >= 0 {
		where = append(where, fmt.Sprintf("f.u >= %d", q.probeMin))
	}
	if q.probeDead {
		where = append(where, "f.x = 77")
	}
	if q.buildMax >= 0 {
		where = append(where, fmt.Sprintf("d.v <= %d", q.buildMax))
	}
	if q.buildDead {
		where = append(where, "d.y > 5000")
	}
	if len(where) > 0 {
		sel += " WHERE " + strings.Join(where, " AND ")
	}
	return sel + group
}

// oracle evaluates the query with a plain nested loop over the raw
// arrays — no engine code involved. The ungrouped shape's one row is the
// pair count and the SUM over all pairs, NULL when no pair matches.
func (q fuzzJoinQuery) oracle(ft *fuzzJoinTables) (count int64, rows [][]string) {
	residualOK := func(u, v int32) bool {
		switch q.residualOp {
		case "<":
			return u < v
		case "<=":
			return u <= v
		case ">":
			return u > v
		case ">=":
			return u >= v
		}
		return true
	}
	sums := map[int32]int64{}
	var total int64
	for i := range ft.fKey {
		if ft.fNull[i] || (q.probeMin >= 0 && ft.fu[i] < q.probeMin) || (q.probeDead && ft.fx[i] != 77) {
			continue
		}
		for j := range ft.dKey {
			if ft.dNull[j] || (q.buildMax >= 0 && ft.dv[j] > q.buildMax) || (q.buildDead && ft.dy[j] <= 5000) {
				continue
			}
			// NaN == NaN is false, so NaN keys never match — as in SQL.
			if ft.fKey[i] == ft.dKey[j] && residualOK(ft.fu[i], ft.dv[j]) {
				count++
				sums[ft.fx[i]] += ft.dy[j]
				total += ft.dy[j]
			}
		}
	}
	if !q.grouped {
		sum := "NULL"
		if count > 0 {
			sum = strconv.FormatInt(total, 10)
		}
		return count, [][]string{{strconv.FormatInt(count, 10), sum}}
	}
	keys := make([]int32, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, k := range keys {
		rows = append(rows, []string{
			strconv.FormatInt(int64(k), 10),
			strconv.FormatInt(sums[k], 10),
		})
	}
	return count, rows
}

// TestFuzzJoinGroupByDifferential is the join differential fuzzer: random
// schemas (int32/int64/float64/float32 keys incl. NaN and -0), NULL join keys (never
// match), duplicate keys, random query shapes (residual ops, per-side
// filters, grouped vs zero-key aggregates) and row counts spanning batch
// boundaries, each run on BOTH the default and native configs and
// checked against a scalar nested-loop oracle. `make fuzz-diff` raises
// the round count via FUSEDSCAN_FUZZ_JOIN_ROUNDS, which also unlocks
// probe sizes beyond one pipeline batch (64Ki rows).
func TestFuzzJoinGroupByDifferential(t *testing.T) {
	rounds := 8
	if s := os.Getenv("FUSEDSCAN_FUZZ_JOIN_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			rounds = n
		}
	}
	factSizes := []int{1, 3, 129, 777, 4096}
	if rounds > 8 {
		factSizes = append(factSizes, 65537, 70000) // cross the 64Ki batch boundary
	}
	dimSizes := []int{0, 1, 37, 400}

	rng := rand.New(rand.NewSource(1234))
	native := NativeConfig()
	collapsed := 0
	for round := 0; round < rounds; round++ {
		factRows := factSizes[rng.Intn(len(factSizes))]
		dimRows := dimSizes[rng.Intn(len(dimSizes))]
		ft := genFuzzJoinTables(rng, factRows, dimRows)
		q := genFuzzJoinQuery(rng)
		sql := q.sql()
		wantCount, wantRows := q.oracle(ft)

		eng := NewEngine()
		ft.register(t, eng)
		if q.probeDead || (q.buildDead && dimRows > 0) {
			// The dead bound's side has rows, so its statistics prove it
			// empty: its whole run goes, and the join with it.
			ex, err := eng.ExplainQuery(sql)
			if err != nil {
				t.Fatalf("round %d: explain %q: %v", round, sql, err)
			}
			if !slices.Contains(ex.AppliedRules, "CollapseEmptyJoin") {
				t.Fatalf("round %d: %q did not collapse the join:\n%s", round, sql, ex.OptimizedPlan)
			}
			collapsed++
		}
		for _, tc := range []struct {
			name string
			cfg  *Config
		}{{"default", nil}, {"native", &native}} {
			res, err := eng.QueryWith(context.Background(), sql, QueryOptions{Config: tc.cfg})
			if err != nil {
				t.Fatalf("round %d [%s] %q (fact=%d dim=%d kind=%d): %v",
					round, tc.name, sql, factRows, dimRows, ft.keyKind, err)
			}
			if !reflect.DeepEqual(res.Rows, wantRows) {
				t.Fatalf("round %d [%s] %q (fact=%d dim=%d kind=%d):\n got %v\nwant %v",
					round, tc.name, sql, factRows, dimRows, ft.keyKind, res.Rows, wantRows)
			}
			if !q.grouped && res.Count != wantCount {
				t.Fatalf("round %d [%s] %q (fact=%d dim=%d kind=%d): count = %d, want %d",
					round, tc.name, sql, factRows, dimRows, ft.keyKind, res.Count, wantCount)
			}
		}
	}
	if collapsed == 0 {
		t.Errorf("no round of %d planned a join collapsed by a pruned predicate run", rounds)
	}
}
