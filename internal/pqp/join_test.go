package pqp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/govern"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
)

// joinData keeps the generator slices so oracles can be computed without
// reading the columns back. Null masks mark NULL key cells.
type joinData struct {
	fk, fu, fx []int32
	fkNull     []bool
	dk, dv     []int32
	dy         []int64
	dkNull     []bool
}

// joinFixture builds a fact table f(k, u, x) and a dimension table
// d(k, v, y) with duplicate and NULL join keys on both sides.
func joinFixture(t *testing.T) (testCatalog, *joinData) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	space := mach.NewAddrSpace()
	jd := &joinData{}

	n := 4000
	jd.fk = make([]int32, n)
	jd.fu = make([]int32, n)
	jd.fx = make([]int32, n)
	jd.fkNull = make([]bool, n)
	for i := 0; i < n; i++ {
		jd.fk[i] = int32(rng.Intn(150)) // some keys have no partner in d
		jd.fu[i] = int32(rng.Intn(7))
		jd.fx[i] = int32(rng.Intn(4))
		jd.fkNull[i] = rng.Intn(37) == 0
	}
	f := column.NewTable(space, "f")
	fkCol := column.FromInt32s(space, "k", jd.fk)
	for i, isNull := range jd.fkNull {
		if isNull {
			fkCol.SetNull(i)
		}
	}
	f.MustAddColumn(fkCol)
	f.MustAddColumn(column.FromInt32s(space, "u", jd.fu))
	f.MustAddColumn(column.FromInt32s(space, "x", jd.fx))

	m := 300
	jd.dk = make([]int32, m)
	jd.dv = make([]int32, m)
	jd.dy = make([]int64, m)
	jd.dkNull = make([]bool, m)
	for i := 0; i < m; i++ {
		jd.dk[i] = int32(i % 120) // duplicate keys: each key ~2-3 times
		jd.dv[i] = int32(rng.Intn(11))
		jd.dy[i] = int64(i * 3)
		jd.dkNull[i] = rng.Intn(29) == 0
	}
	d := column.NewTable(space, "d")
	dkCol := column.FromInt32s(space, "k", jd.dk)
	for i, isNull := range jd.dkNull {
		if isNull {
			dkCol.SetNull(i)
		}
	}
	d.MustAddColumn(dkCol)
	d.MustAddColumn(column.FromInt32s(space, "v", jd.dv))
	d.MustAddColumn(column.FromInt64s(space, "y", jd.dy))

	return testCatalog{"f": f, "d": d}, jd
}

// oracleGroupSums is the scalar nested-loop oracle for
//
//	SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k AND f.u < d.v
//	WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x
func oracleGroupSums(jd *joinData) (keys []int32, sums []int64) {
	acc := map[int32]int64{}
	for i := range jd.fk {
		if jd.fx[i] < 1 || jd.fkNull[i] {
			continue
		}
		for j := range jd.dk {
			if jd.dkNull[j] || jd.dv[j] > 8 || jd.dk[j] != jd.fk[i] || jd.fu[i] >= jd.dv[j] {
				continue
			}
			acc[jd.fx[i]] += jd.dy[j]
		}
	}
	for k := int32(0); k < 4; k++ {
		if s, ok := acc[k]; ok {
			keys = append(keys, k)
			sums = append(sums, s)
		}
	}
	return keys, sums
}

const joinGroupSQL = "SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k AND f.u < d.v WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x"

func runPlan(t *testing.T, lp *lqp.Plan, opts Options) (QueryResult, *Plan) {
	t.Helper()
	pp, err := Translate(lp, jit.NewCompiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return res, pp
}

func TestJoinGroupByAgainstOracle(t *testing.T) {
	cat, jd := joinFixture(t)
	wantKeys, wantSums := oracleGroupSums(jd)
	if len(wantKeys) == 0 {
		t.Fatal("degenerate fixture: oracle has no groups")
	}

	configs := map[string]Options{
		"fused":       DefaultOptions(),
		"native":      {Native: true, Width: DefaultOptions().Width, ISA: DefaultOptions().ISA},
		"sisd":        {Width: DefaultOptions().Width, ISA: DefaultOptions().ISA},
		"small-batch": func() Options { o := DefaultOptions(); o.BatchRows = 129; return o }(), // non-power-of-two batch boundaries
		"parallel": func() Options {
			o := DefaultOptions()
			o.Cores = 3
			o.BatchRows = 517
			o.Params = mach.Default()
			return o
		}(),
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			res, _ := runPlan(t, plan(t, cat, joinGroupSQL, true), opts)
			if len(res.Columns) != 2 || res.Columns[0] != "f.x" || res.Columns[1] != "sum(d.y)" {
				t.Fatalf("columns = %v", res.Columns)
			}
			if len(res.Rows) != len(wantKeys) {
				t.Fatalf("groups = %d, want %d (rows: %v)", len(res.Rows), len(wantKeys), res.Rows)
			}
			for r := range res.Rows {
				gotKey := res.Rows[r][0].Int()
				gotSum := res.Rows[r][1].Int()
				if gotKey != int64(wantKeys[r]) || gotSum != wantSums[r] {
					t.Errorf("row %d = (%d, %d), want (%d, %d)", r, gotKey, gotSum, wantKeys[r], wantSums[r])
				}
			}
		})
	}
}

func TestJoinZeroKeyAggregateAndProjection(t *testing.T) {
	cat, jd := joinFixture(t)

	// Oracle for the un-grouped aggregate and the row projection.
	var wantCount int64
	type pair struct{ x, y int64 }
	var wantRows []pair
	for i := range jd.fk {
		if jd.fkNull[i] {
			continue
		}
		for j := range jd.dk {
			if jd.dkNull[j] || jd.dk[j] != jd.fk[i] || jd.fu[i] >= jd.dv[j] {
				continue
			}
			wantCount++
			wantRows = append(wantRows, pair{int64(jd.fx[i]), jd.dy[j]})
		}
	}

	res, _ := runPlan(t, plan(t, cat, "SELECT COUNT(*) FROM f JOIN d ON f.k = d.k AND f.u < d.v", true), DefaultOptions())
	if !res.IsAggregate || len(res.Aggregates) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := res.Aggregates[0].Int(); got != wantCount {
		t.Fatalf("count = %d, want %d", got, wantCount)
	}
	if res.Count != wantCount {
		t.Fatalf("Count = %d, want %d", res.Count, wantCount)
	}

	res, _ = runPlan(t, plan(t, cat, "SELECT f.x, d.y FROM f JOIN d ON f.k = d.k AND f.u < d.v", true), DefaultOptions())
	if len(res.Columns) != 2 || res.Columns[0] != "f.x" || res.Columns[1] != "d.y" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if int64(len(res.Rows)) != wantCount || res.Count != wantCount {
		t.Fatalf("rows = %d count = %d, want %d", len(res.Rows), res.Count, wantCount)
	}
	for r, w := range wantRows {
		if res.Rows[r][0].Int() != w.x || res.Rows[r][1].Int() != w.y {
			t.Fatalf("row %d = (%d, %d), want (%d, %d)", r, res.Rows[r][0].Int(), res.Rows[r][1].Int(), w.x, w.y)
		}
	}
}

// TestJoinBloomPrefilterReducesProbeRows is the predicate-transfer
// regression: with Transfer on, the probe-side fused chain evaluates the
// Bloom prefilter and the probe scan emits measurably fewer rows than the
// same plan with transfer disabled — the join itself then sees the reduced
// stream.
func TestJoinBloomPrefilterReducesProbeRows(t *testing.T) {
	cat, _ := joinFixture(t)
	// A highly selective build side (few distinct keys survive) makes the
	// transferred filter bite hard on the probe side.
	sql := "SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE f.x >= 0 AND d.v = 3"

	probeOut := func(mutate func(*lqp.Plan)) (int64, QueryResult, []OperatorStats) {
		lp := plan(t, cat, sql, true)
		if mutate != nil {
			mutate(lp)
		}
		res, pp := runPlan(t, lp, DefaultOptions())
		for _, st := range pp.OperatorStats() {
			if strings.HasPrefix(st.Name, "FusedTableScan(direct)") {
				return st.RowsOut, res, pp.OperatorStats()
			}
		}
		t.Fatalf("no probe scan in stats:\n%s", FormatStats(pp.OperatorStats()))
		return 0, QueryResult{}, nil
	}

	// Walk the whole spine (unlike pqp's findJoin, which stops at a
	// GroupBy — the aggregate here roots the plan).
	lqpJoin := func(lp *lqp.Plan) *lqp.Join {
		for n := lp.Root; n != nil; n = n.Child() {
			if j, ok := n.(*lqp.Join); ok {
				return j
			}
		}
		return nil
	}

	withBloom, resB, stats := probeOut(nil)
	withoutBloom, resN, _ := probeOut(func(lp *lqp.Plan) {
		jn := lqpJoin(lp)
		if jn == nil || !jn.Transfer {
			t.Fatal("optimizer did not mark predicate transfer")
		}
		jn.Transfer = false
	})

	if resB.Aggregates[0].Int() != resN.Aggregates[0].Int() {
		t.Fatalf("transfer changed the result: %d vs %d", resB.Aggregates[0].Int(), resN.Aggregates[0].Int())
	}
	if withBloom >= withoutBloom {
		t.Fatalf("bloom did not reduce probe rows: %d (with) vs %d (without)", withBloom, withoutBloom)
	}
	var joinStats *OperatorStats
	for i := range stats {
		if strings.HasPrefix(stats[i].Name, "HashJoin") {
			joinStats = &stats[i]
		}
	}
	if joinStats == nil {
		t.Fatalf("no join stats:\n%s", FormatStats(stats))
	}
	if joinStats.BloomChecks == 0 || joinStats.BloomPass >= joinStats.BloomChecks {
		t.Errorf("bloom counters: pass=%d checks=%d", joinStats.BloomPass, joinStats.BloomChecks)
	}
	if joinStats.ProbeRows != withBloom {
		t.Errorf("join probe rows = %d, probe scan emitted %d", joinStats.ProbeRows, withBloom)
	}
	if joinStats.BuildRows == 0 {
		t.Error("join build rows = 0")
	}
}

// TestJoinPlanRerunKeepsOneBloomStep runs one translated join plan three
// times: every run must leave the probe chain at its own length plus one
// Bloom step and report the same count and Bloom counters. A probe with
// no WHERE of its own goes from no step to that one. Every f row reaches
// the step, so it checks them all, NULL keys included, and passes the
// non-NULL keys the filter holds. When the build side covers every probe
// key, the filter would pass every row: every run must then skip it,
// leaving the chain at its own length with no checks.
func TestJoinPlanRerunKeepsOneBloomStep(t *testing.T) {
	cat, jd := joinFixture(t)
	cases := []struct {
		name, sql string
		skipped   bool
		// bare marks a probe side with no predicates of its own.
		bare bool
	}{
		{"bloom", "SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE f.x >= 0 AND d.v = 3", false, false},
		{"unfiltered-probe", "SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE d.v = 3", false, true},
		// f's keys span 0..149 and cover each of d's 0..119.
		{"skipped", "SELECT COUNT(*) FROM d JOIN f ON d.k = f.k WHERE d.v >= 0", true, false},
	}
	for name, opts := range map[string]Options{
		"fused":  DefaultOptions(),
		"native": func() Options { o := DefaultOptions(); o.Native, o.Cores, o.BatchRows = true, 2, 517; return o }(),
	} {
		t.Run(name, func(t *testing.T) {
			for _, c := range cases {
				pp, err := Translate(plan(t, cat, c.sql, true), jit.NewCompiler(), opts)
				if err != nil {
					t.Fatal(err)
				}
				var jo *joinOp
				for op := pp.Root; jo == nil; op = op.(interface{ child() Operator }).child() {
					jo, _ = op.(*joinOp)
				}
				if c.bare != (len(jo.probe.preds) == 0) {
					t.Fatalf("%s: probe scan translated with %d predicates", c.name, len(jo.probe.preds))
				}
				wantLen := len(jo.probe.preds) + 1
				if c.skipped {
					wantLen--
				}
				var want []int64
				for run := 0; run < 3; run++ {
					var cpu *mach.CPU
					if !opts.Native {
						cpu = mach.New(mach.Default())
					}
					res, err := pp.Run(context.Background(), cpu)
					if err != nil {
						t.Fatal(err)
					}
					join := jo.Stats()
					rendered := FormatStats(pp.OperatorStats())
					if c.skipped != (join.BloomChecks == 0) || join.BloomSkipped != c.skipped ||
						strings.Contains(rendered, "bloom=skipped") != c.skipped {
						t.Fatalf("%s run %d: skipped=%v, got checks=%d BloomSkipped=%v:\n%s", c.name, run, c.skipped, join.BloomChecks, join.BloomSkipped, rendered)
					}
					if n := len(jo.probe.chain); n != wantLen {
						t.Fatalf("%s run %d: probe chain has %d steps, want %d", c.name, run, n, wantLen)
					}
					// EXPLAIN names the scan by its own predicates, not by
					// the Bloom step the join added.
					if got := jo.probe.Describe(); c.bare != (got == "TableScan(f, all rows)") {
						t.Errorf("%s run %d: probe scan described as %q", c.name, run, got)
					}
					if !c.skipped {
						bl := jo.probe.chain[wantLen-1].Bloom
						pass := 0
						for i, k := range jd.fk {
							if !jd.fkNull[i] && bl.Test(uint64(uint32(k))) {
								pass++
							}
						}
						if join.BloomChecks != int64(len(jd.fk)) || join.BloomPass != int64(pass) {
							t.Errorf("%s run %d: bloom %d/%d, want %d/%d", c.name, run, join.BloomPass, join.BloomChecks, pass, len(jd.fk))
						}
					}
					got := []int64{res.Aggregates[0].Int(), join.BloomChecks, join.BloomPass}
					if run == 0 {
						want = got
						continue
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s run %d: count/checks/pass %v, run 0 had %v", c.name, run, got, want)
					}
				}
			}
		})
	}
}

// TestJoinBloomStepOnNullAndNaNProbeKeys joins an unfiltered float probe
// side holding NULL, NaN and -0 keys to a filtered build side, so the
// transferred Bloom filter is the probe scan's only step, on the
// simulated, native and two-core native paths: NULL and NaN keys join
// nothing and -0 joins 0; every probe row reaches the step, which passes
// exactly the non-NULL keys the filter holds.
func TestJoinBloomStepOnNullAndNaNProbeKeys(t *testing.T) {
	const n, m = 5000, 50
	space := mach.NewAddrSpace()
	pk := make([]float64, n)
	var nulls []int
	for i := range pk {
		switch i % 11 {
		case 3:
			pk[i] = math.NaN()
		case 7:
			pk[i] = math.Copysign(0, -1)
		default:
			pk[i] = float64(i % m)
		}
		if i%13 == 5 {
			nulls = append(nulls, i)
		}
	}
	probe := column.NewTable(space, "p")
	pkCol := column.FromFloat64s(space, "k", pk)
	for _, i := range nulls {
		pkCol.SetNull(i)
	}
	probe.MustAddColumn(pkCol)
	bk, bv := make([]float64, m), make([]int32, m)
	for i := range bk {
		bk[i] = float64(i)
		if i%5 == 0 {
			bv[i] = 1
		}
	}
	build := column.NewTable(space, "b")
	build.MustAddColumn(column.FromFloat64s(space, "k", bk))
	build.MustAddColumn(column.FromInt32s(space, "v", bv))
	cat := testCatalog{"p": probe, "b": build}

	want := 0
	for i, k := range pk {
		// b.v = 1 keeps the build keys 0, 5, ..., 45; -0 equals 0.
		if !pkCol.Null(i) && k == k && int(k)%5 == 0 {
			want++
		}
	}
	const sql = "SELECT COUNT(*) FROM p JOIN b ON p.k = b.k WHERE b.v = 1"
	native2 := nativeOptions()
	native2.Cores, native2.BatchRows = 2, 1024
	for name, opts := range map[string]Options{"fused": DefaultOptions(), "native": nativeOptions(), "native-2-cores": native2} {
		t.Run(name, func(t *testing.T) {
			var cpu *mach.CPU
			if !opts.Native {
				cpu = mach.New(mach.Default())
			}
			pp, res, err := runGroupSQL(t, context.Background(), cat, sql, opts, cpu)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Aggregates[0].Int(); got != int64(want) {
				t.Errorf("count %d, want %d", got, want)
			}
			var jo *joinOp
			for op := pp.Root; jo == nil; op = op.(interface{ child() Operator }).child() {
				jo, _ = op.(*joinOp)
			}
			if len(jo.probe.preds) != 0 || len(jo.probe.chain) != 1 {
				t.Fatalf("probe chain %d steps from %d predicates, want 1 from 0", len(jo.probe.chain), len(jo.probe.preds))
			}
			bl := jo.probe.chain[0].Bloom
			pass := 0
			for i := range pk {
				if !pkCol.Null(i) && bl.Test(pkCol.Raw(i)) {
					pass++
				}
			}
			st := jo.Stats()
			if st.BloomChecks != n || st.BloomPass != int64(pass) || st.ProbeRows != int64(pass) {
				t.Errorf("bloom %d/%d, probe rows %d; want %d/%d, %d", st.BloomPass, st.BloomChecks, st.ProbeRows, pass, n, pass)
			}
		})
	}
}

func TestJoinEmptyBuildShortCircuitsProbe(t *testing.T) {
	cat, jd := joinFixture(t)
	// Pick a v value that no d row carries but that zone maps cannot rule
	// out, so the optimizer keeps the join and the runtime path handles it.
	present := map[int32]bool{}
	for j, v := range jd.dv {
		if !jd.dkNull[j] {
			present[v] = true
		}
	}
	missing := int32(-1)
	for v := int32(0); v <= 10; v++ {
		if !present[v] {
			missing = v
			break
		}
	}
	if missing < 0 {
		// Every v in range occurs; fall back to an out-of-range literal
		// (the join then collapses at optimize time and the test only
		// checks the empty result).
		missing = 999
	}
	lp := plan(t, cat, fmt.Sprintf("SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE d.v = %d", missing), true)
	res, pp := runPlan(t, lp, DefaultOptions())
	if !res.IsAggregate || res.Aggregates[0].Int() != 0 {
		t.Fatalf("result = %+v", res)
	}
	// The probe side must never have been scanned.
	for _, st := range pp.OperatorStats() {
		if strings.HasPrefix(st.Name, "FusedTableScan(direct)") || strings.Contains(st.Name, "TableScan(f") {
			if st.RowsIn != 0 {
				t.Errorf("probe scan consumed %d rows despite empty build:\n%s", st.RowsIn, FormatStats(pp.OperatorStats()))
			}
		}
	}
}

// TestGroupByOverCollapsedJoin: when a build-side predicate is provably
// false (outside the zone-map range) the optimizer collapses the join to
// an EmptyResult, leaving the GroupBy referencing build-side columns
// with no join — and no build table — below it. Translation must still
// succeed and the sink must produce the correct empty result.
func TestGroupByOverCollapsedJoin(t *testing.T) {
	cat, _ := joinFixture(t)
	// d.v is always in [0, 10]: v <= -5 collapses the build side.
	grouped := plan(t, cat,
		"SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k WHERE d.v <= -5 GROUP BY f.x", true)
	res, _ := runPlan(t, grouped, DefaultOptions())
	if len(res.Rows) != 0 {
		t.Fatalf("grouped rows over collapsed join = %v, want none", res.Rows)
	}
	zeroKey := plan(t, cat,
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE d.v <= -5", true)
	res, _ = runPlan(t, zeroKey, DefaultOptions())
	if !res.IsAggregate || res.Aggregates[0].Int() != 0 {
		t.Fatalf("zero-key result over collapsed join = %+v, want COUNT 0", res)
	}
}

func TestJoinFormatAndStatsDepth(t *testing.T) {
	cat, _ := joinFixture(t)
	lp := plan(t, cat, joinGroupSQL, true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := pp.Format()
	if !strings.Contains(out, "Build:") || !strings.Contains(out, "HashJoin[") || !strings.Contains(out, "GroupBy[") {
		t.Fatalf("format:\n%s", out)
	}
	if _, err := pp.Run(context.Background(), mach.New(mach.Default())); err != nil {
		t.Fatal(err)
	}
	stats := pp.OperatorStats()
	byName := map[string]OperatorStats{}
	for _, st := range stats {
		for _, prefix := range []string{"GroupBy", "HashJoin", "FusedTableScan(direct)"} {
			if strings.HasPrefix(st.Name, prefix) {
				byName[prefix] = st
			}
		}
	}
	if byName["GroupBy"].Depth != 0 {
		t.Errorf("GroupBy depth = %d", byName["GroupBy"].Depth)
	}
	if byName["HashJoin"].Depth != 1 {
		t.Errorf("HashJoin depth = %d", byName["HashJoin"].Depth)
	}
	// The build subtree is indented under the "Build:" heading (join depth
	// + 2); the probe scan continues the spine at join depth + 1.
	if byName["FusedTableScan(direct)"].Depth != 2 {
		t.Errorf("probe scan depth = %d", byName["FusedTableScan(direct)"].Depth)
	}
	if byName["GroupBy"].Groups == 0 {
		t.Error("no groups recorded")
	}
	rendered := FormatStats(stats)
	if !strings.Contains(rendered, "build=") || !strings.Contains(rendered, "groups=") {
		t.Errorf("stats rendering:\n%s", rendered)
	}
}

func TestJoinBuildMemoryBudget(t *testing.T) {
	cat, _ := joinFixture(t)
	lp := plan(t, cat, joinGroupSQL, true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Enough budget for scan batches of the 300-row build side, not enough
	// for the retained hash table (~300 x 48 B).
	ctx := govern.WithAccountant(context.Background(), govern.NewAccountant(8<<10))
	_, err = pp.Run(ctx, mach.New(mach.Default()))
	if !errors.Is(err, govern.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
}

func TestJoinFaultSitesReturnTypedErrors(t *testing.T) {
	cat, _ := joinFixture(t)
	for _, site := range []string{faultinject.SiteJoinBuildAlloc, faultinject.SiteJoinProbeBatch} {
		t.Run(site, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Arm(site, 1, faultinject.ModeError)
			lp := plan(t, cat, joinGroupSQL, true)
			pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			_, err = pp.Run(context.Background(), mach.New(mach.Default()))
			var fe *faultinject.Error
			if !errors.As(err, &fe) || fe.Site != site {
				t.Fatalf("err = %v, want injected error at %s", err, site)
			}
		})
	}
}

func TestJoinCancellation(t *testing.T) {
	cat, _ := joinFixture(t)
	lp := plan(t, cat, joinGroupSQL, true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pp.Run(ctx, mach.New(mach.Default())); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestJoinSelectStarQualifiesColumns(t *testing.T) {
	cat, _ := joinFixture(t)
	want := []string{"f.k", "f.u", "f.x", "d.k", "d.v", "d.y"}
	res, _ := runPlan(t, plan(t, cat, "SELECT * FROM f JOIN d ON f.k = d.k LIMIT 5", true), DefaultOptions())
	if strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", res.Columns, want)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].Int() != row[3].Int() {
			t.Fatalf("join key mismatch in row: %v", row)
		}
	}
	// A join the optimizer proved empty keeps the same header, whichever
	// side collapsed: d.v is in [0, 10] and f.u in [0, 6].
	for _, sql := range []string{
		"SELECT * FROM f JOIN d ON f.k = d.k WHERE d.v = 77",
		"SELECT * FROM f JOIN d ON f.k = d.k WHERE f.u = 77",
	} {
		lp := plan(t, cat, sql, true)
		if !strings.Contains(strings.Join(lp.AppliedRules, ","), "CollapseEmptyJoin") {
			t.Fatalf("%s: join not collapsed:\n%s", sql, lp.Format())
		}
		res, _ := runPlan(t, lp, DefaultOptions())
		if strings.Join(res.Columns, ",") != strings.Join(want, ",") || len(res.Rows) != 0 {
			t.Errorf("%s: columns = %v, %d rows; want %v, none", sql, res.Columns, len(res.Rows), want)
		}
	}
}

// joinKeyRaw returns the stored bits of key value index v (0..39) in type
// t: negative values for signed types, the top bit for uint64, and for
// floats a signed zero (either sign) at v = 0, a NaN at v = 1 and
// fractions otherwise.
func joinKeyRaw(t expr.Type, v int, rng *rand.Rand) uint64 {
	f := float64(v) - 10.5
	switch v {
	case 0:
		f = math.Copysign(0, float64(rng.Intn(2))-0.5)
	case 1:
		f = math.NaN()
	}
	switch {
	case t == expr.Float32:
		return uint64(math.Float32bits(float32(f)))
	case t == expr.Float64:
		return math.Float64bits(f)
	case t.Signed():
		return uint64(int64(v - 20))
	case t == expr.Uint64:
		return uint64(v) | uint64(v&1)<<63
	}
	return uint64(3 * v)
}

// joinKeyTable builds a table of n rows: a key column k of type t drawn
// from the first domain key values, NULL one row in nullEvery (every row
// when nullEvery is 1), and an int32 column r in [0, 100).
func joinKeyTable(t *testing.T, space *mach.AddrSpace, name string, kt expr.Type, n, domain, nullEvery int, pack bool, rng *rand.Rand) *column.Table {
	t.Helper()
	k := column.New(space, "k", kt, n)
	r := make([]int32, n)
	for i := range n {
		k.SetRaw(i, joinKeyRaw(kt, rng.Intn(domain), rng))
		if rng.Intn(nullEvery) == 0 {
			k.SetNull(i)
		}
		r[i] = int32(rng.Intn(100))
	}
	if pack {
		var err error
		if k, err = column.Pack(k); err != nil {
			t.Fatal(err)
		}
	}
	tbl := column.NewTable(space, name)
	tbl.MustAddColumn(k)
	tbl.MustAddColumn(column.FromInt32s(space, "r", r))
	return tbl
}

// nestedLoopJoin is the reference: for each probe row in order, every
// build row in ascending position whose key equals it under SQL '=' (no
// NULLs, NaN equal to nothing, -0 equal to +0) and, with residual, whose r
// exceeds the probe row's.
func nestedLoopJoin(p, b *column.Table, residual bool) [][2]uint32 {
	pk, _ := p.Column("k")
	bk, _ := b.Column("k")
	pr, _ := p.Column("r")
	br, _ := b.Column("r")
	eq := func(x, y uint64) bool { return x == y }
	switch pk.Type() {
	case expr.Float32:
		eq = func(x, y uint64) bool { return math.Float32frombits(uint32(x)) == math.Float32frombits(uint32(y)) }
	case expr.Float64:
		eq = func(x, y uint64) bool { return math.Float64frombits(x) == math.Float64frombits(y) }
	}
	var out [][2]uint32
	for i := range p.Rows() {
		if pk.Null(i) {
			continue
		}
		x := pk.Raw(i)
		for j := range b.Rows() {
			if bk.Null(j) || !eq(x, bk.Raw(j)) || (residual && pr.Raw(i) >= br.Raw(j)) {
				continue
			}
			out = append(out, [2]uint32{uint32(i), uint32(j)})
		}
	}
	return out
}

// TestJoinTableMatchesNestedLoop drives the hash join directly and checks
// its pair stream against the nested-loop reference: pairs in probe order,
// each probe row's matches in ascending build position. The probe side
// spans three scan chunks, so two cores scan it in parallel.
func TestJoinTableMatchesNestedLoop(t *testing.T) {
	const probeRows, buildRows = 2<<16 + 777, 64
	type joinCase struct {
		name      string
		kt        expr.Type
		pack      bool
		residual  bool
		buildNull int // one build key in buildNull is NULL; 1 empties the build
	}
	var cases []joinCase
	for _, kt := range expr.AllTypes() {
		cases = append(cases, joinCase{name: kt.String(), kt: kt, buildNull: 11})
	}
	cases = append(cases,
		joinCase{name: "packed", kt: expr.Int32, pack: true, buildNull: 11},
		joinCase{name: "residual", kt: expr.Int64, residual: true, buildNull: 11},
		joinCase{name: "empty-build", kt: expr.Int32, buildNull: 1},
	)
	native := func(cores int) Options { o := nativeOptions(); o.Cores = cores; return o }
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci)))
			space := mach.NewAddrSpace()
			// Build keys cover 24 of the probe's 40 values, ~2.7 rows each.
			p := joinKeyTable(t, space, "p", c.kt, probeRows, 40, 13, c.pack, rng)
			b := joinKeyTable(t, space, "b", c.kt, buildRows, 24, c.buildNull, false, rng)
			want := nestedLoopJoin(p, b, c.residual)
			sql := "SELECT p.r, b.r FROM p JOIN b ON p.k = b.k"
			if c.residual {
				sql += " AND p.r < b.r"
			}
			sql += " WHERE p.r >= 0"
			for name, run := range map[string]struct {
				opts Options
				cpu  *mach.CPU
			}{
				"native-1": {native(1), nil},
				"native-2": {native(2), nil},
				"emulated": {DefaultOptions(), mach.New(mach.Default())},
			} {
				pp, err := Translate(plan(t, testCatalog{"p": p, "b": b}, sql, true), jit.NewCompiler(), run.opts)
				if err != nil {
					t.Fatal(err)
				}
				var jo *joinOp
				for op := pp.Root; jo == nil; op = op.(interface{ child() Operator }).child() {
					jo, _ = op.(*joinOp)
				}
				if err := jo.Open(context.Background(), run.cpu); err != nil {
					t.Fatal(err)
				}
				var got [][2]uint32
				for {
					bt, err := jo.Next()
					if err == EOS {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					for i, rel := range bt.Sel {
						got = append(got, [2]uint32{bt.Base + rel, bt.BuildSel[i]})
					}
				}
				if err := jo.Close(); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					i := 0
					for i < min(len(got), len(want)) && got[i] == want[i] {
						i++
					}
					t.Fatalf("%s: %d pairs, want %d; first difference at pair %d", name, len(got), len(want), i)
				}
				if c.buildNull == 1 && jo.Stats().ProbeRows != 0 {
					t.Errorf("%s: empty build side, yet %d probe rows reached the join", name, jo.Stats().ProbeRows)
				}
				if cores := jo.probe.Stats().Cores; name == "native-2" && c.buildNull != 1 && cores != 2 {
					t.Errorf("%s: probe scan ran on %d cores", name, cores)
				}
			}
		})
	}
}
