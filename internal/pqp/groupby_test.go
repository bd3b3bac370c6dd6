package pqp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/govern"
	"fusedscan/internal/jit"
	"fusedscan/internal/mach"
)

// nativeOptions runs plans on the native path, against a nil CPU.
func nativeOptions() Options {
	o := DefaultOptions()
	o.Native = true
	return o
}

// runGroupSQL translates and runs sql; cpu nil runs it unsimulated.
func runGroupSQL(t testing.TB, ctx context.Context, cat testCatalog, sql string, opts Options, cpu *mach.CPU) (*Plan, QueryResult, error) {
	t.Helper()
	pp, err := Translate(plan2(t, cat, sql, true), jit.NewCompiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(ctx, cpu)
	return pp, res, err
}

// refGroup is one group of the reference aggregation: first-seen key
// cells, row count and the fold of the value column over its non-NULL
// rows, in row order (integer or float accumulators by the column's type).
type refGroup struct {
	keys             []refKey
	count, valid     int64
	sumI, minI, maxI int64
	sumF, minF, maxF float64
}

// refKey is one key cell as the reference sees it: NULL, or a value with
// its float reading (for float keys) used for equality and order.
type refKey struct {
	null  bool
	val   expr.Value
	float bool
	f     float64
}

// id spells the cell's grouping identity: NULL groups with NULL, -0 with
// +0, and a NaN with the same NaN bits.
func (a refKey) id() string {
	switch {
	case a.null:
		return "NULL"
	case a.float && a.f != a.f:
		return fmt.Sprintf("NaN%x", math.Float64bits(a.f))
	case a.float && a.f == 0:
		return "0"
	}
	return a.val.String()
}

// lessKey is the documented group order: numbers ascending, then NaN, then
// NULL.
func (a refKey) lessKey(b refKey) bool {
	switch {
	case a.null || b.null:
		return !a.null && b.null
	case a.float && (a.f != a.f || b.f != b.f):
		return a.f == a.f && b.f != b.f
	}
	return a.val.Compare(expr.Lt, b.val)
}

// referenceGroupBy renders "SELECT keys..., COUNT(*), SUM(val), MIN(val),
// MAX(val), AVG(val) ... GROUP BY keys" over the given rows with a map and
// a sort, sharing no code with the sink. MIN and MAX keep the first value
// unless a later one is strictly smaller or larger, so a NaN or a signed
// zero that comes first stays.
func referenceGroupBy(tbl *column.Table, keyNames []string, val string, rows []int) string {
	v, _ := tbl.Column(val)
	float := v.Type().Float()
	var groups []*refGroup
	byID := map[string]*refGroup{}
	for _, r := range rows {
		keys := make([]refKey, len(keyNames))
		for k, name := range keyNames {
			c, _ := tbl.Column(name)
			if c.Null(r) {
				keys[k] = refKey{null: true}
				continue
			}
			val := c.Value(r)
			keys[k] = refKey{val: val, float: val.Type.Float()}
			if keys[k].float {
				keys[k].f = val.Float()
			}
		}
		var id strings.Builder
		for _, k := range keys {
			id.WriteString(k.id() + "|")
		}
		g := byID[id.String()]
		if g == nil {
			g = &refGroup{keys: keys}
			byID[id.String()] = g
			groups = append(groups, g)
		}
		g.count++
		if v.Null(r) {
			continue
		}
		if float {
			x := v.Value(r).Float()
			if g.valid == 0 || x < g.minF {
				g.minF = x
			}
			if g.valid == 0 || x > g.maxF {
				g.maxF = x
			}
			g.sumF += x
		} else {
			x := v.Value(r).Int()
			if g.valid == 0 || x < g.minI {
				g.minI = x
			}
			if g.valid == 0 || x > g.maxI {
				g.maxI = x
			}
			g.sumI += x
		}
		g.valid++
	}
	sort.SliceStable(groups, func(i, j int) bool {
		for k := range keyNames {
			a, b := groups[i].keys[k], groups[j].keys[k]
			if a.lessKey(b) {
				return true
			}
			if b.lessKey(a) {
				return false
			}
		}
		return false
	})
	var sb strings.Builder
	for _, g := range groups {
		for _, k := range g.keys {
			if k.null {
				sb.WriteString("NULL\t")
			} else {
				sb.WriteString(k.val.String() + "\t")
			}
		}
		fmt.Fprintf(&sb, "%d\t", g.count)
		if g.valid == 0 {
			sb.WriteString("NULL\tNULL\tNULL\tNULL\t\n")
			continue
		}
		if float {
			f := func(x float64) expr.Value { return expr.NewFloat(expr.Float64, x) }
			fmt.Fprintf(&sb, "%s\t%s\t%s\t%s\t\n", f(g.sumF), f(g.minF), f(g.maxF), f(g.sumF/float64(g.valid)))
			continue
		}
		avg := expr.NewFloat(expr.Float64, float64(g.sumI)/float64(g.valid))
		fmt.Fprintf(&sb, "%d\t%d\t%d\t%s\t\n", g.sumI, g.minI, g.maxI, avg)
	}
	return sb.String()
}

// renderRows is renderResult's row part.
func renderRows(res QueryResult) string {
	s := renderResult(res)
	return s[strings.IndexByte(s, '\n')+1:]
}

// TestGroupTableGrowthBoundaries runs a one-key GROUP BY at 1 group, at
// each slot-array doubling boundary (and one either side), at 16 Ki and at
// 64 Ki+1 groups, against the reference.
func TestGroupTableGrowthBoundaries(t *testing.T) {
	const distinct = 64<<10 + 1
	const perKey = 2
	n := distinct * perKey
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(n)
	space := mach.NewAddrSpace()
	ks, vs := make([]int32, n), make([]int32, n)
	for i, p := range perm {
		ks[i] = int32(p % distinct)
		vs[i] = int32(rng.Intn(2000) - 1000)
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "k", ks))
	v := column.FromInt32s(space, "v", vs)
	for i := 0; i < n; i += 7 {
		v.SetNull(i)
	}
	tbl.MustAddColumn(v)
	cat := testCatalog{"t": tbl}

	counts := []int{1, 16 << 10, distinct}
	for b := keyTableMinSlots / 2; b <= distinct; b *= 2 {
		counts = append(counts, b-1, b, b+1)
	}
	// Every key occurs perKey times, so the reference for "k < groups" is
	// the first groups lines of the reference over the whole table.
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	lines := strings.SplitAfter(referenceGroupBy(tbl, []string{"k"}, "v", all), "\n")
	for _, groups := range counts {
		want := strings.Join(lines[:groups], "")
		sql := fmt.Sprintf("SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t WHERE k < %d GROUP BY k", groups)
		pp, res, err := runGroupSQL(t, context.Background(), cat, sql, nativeOptions(), nil)
		if err != nil {
			t.Fatalf("%d groups: %v", groups, err)
		}
		if got := renderRows(res); got != want {
			t.Fatalf("%d groups: rows differ from the reference (%d vs %d bytes)", groups, len(got), len(want))
		}
		if st := pp.OperatorStats()[0]; st.Groups != int64(groups) || res.Count != int64(groups) {
			t.Errorf("%d groups: stats groups=%d count=%d", groups, st.Groups, res.Count)
		}
	}
}

// mixedKeyTable holds int8, uint64 and float64 key columns with NULLs,
// -0/+0, NaN and infinities, plus a nullable int32 value column.
func mixedKeyTable(n int, seed int64) testCatalog {
	rng := rand.New(rand.NewSource(seed))
	space := mach.NewAddrSpace()
	a := column.New(space, "a", expr.Int8, n)
	b := column.New(space, "b", expr.Uint64, n)
	c := column.New(space, "c", expr.Float64, n)
	v := column.New(space, "v", expr.Int32, n)
	bs := []uint64{0, 1, 7, 1 << 63, math.MaxUint64}
	cs := []float64{math.Copysign(0, -1), 0, 1.5, -2, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < n; i++ {
		a.SetRaw(i, uint64(int64(rng.Intn(7)-3)))
		b.SetRaw(i, bs[rng.Intn(len(bs))])
		c.SetRaw(i, math.Float64bits(cs[rng.Intn(len(cs))]))
		v.SetRaw(i, uint64(int64(rng.Intn(100)-50)))
		for _, col := range []*column.Column{a, b, c, v} {
			if rng.Intn(9) == 0 {
				col.SetNull(i)
			}
		}
	}
	tbl := column.NewTable(space, "t")
	for _, col := range []*column.Column{a, b, c, v} {
		tbl.MustAddColumn(col)
	}
	return testCatalog{"t": tbl}
}

// TestGroupByMixedKeys checks two- and three-key GROUP BY over int8,
// uint64 and float64 keys — NULL, -0/+0, NaN and infinite keys included —
// folding an int32 and a float64 column (the same NaN, signed zeros and
// infinities), against the reference, simulated and native, across batch
// sizes.
func TestGroupByMixedKeys(t *testing.T) {
	cat := mixedKeyTable(3000, 8)
	tbl := cat["t"]
	all := make([]int, tbl.Rows())
	for i := range all {
		all[i] = i
	}
	small := DefaultOptions()
	small.BatchRows = 129
	for i, keys := range [][]string{{"a", "b"}, {"c", "a"}, {"b", "c"}, {"a", "b", "c"}, {"c", "b", "a"}} {
		val := []string{"v", "c"}[i%2]
		want := referenceGroupBy(tbl, keys, val, all)
		list := strings.Join(keys, ", ")
		sql := fmt.Sprintf("SELECT %s, COUNT(*), SUM(%s), MIN(%[2]s), MAX(%[2]s), AVG(%[2]s) FROM t GROUP BY %[1]s", list, val)
		for name, run := range map[string]struct {
			opts Options
			cpu  *mach.CPU
		}{
			"simulated":   {DefaultOptions(), mach.New(mach.Default())},
			"small-batch": {small, mach.New(mach.Default())},
			"native":      {nativeOptions(), nil},
		} {
			_, res, err := runGroupSQL(t, context.Background(), cat, sql, run.opts, run.cpu)
			if err != nil {
				t.Fatalf("%s %s: %v", name, sql, err)
			}
			if got := renderRows(res); got != want {
				t.Errorf("%s %s:\ngot\n%swant\n%s", name, sql, got, want)
			}
		}
	}
}

// TestGroupByDirectIdsAtKeySpan runs a one-key GROUP BY over three
// windows whose key spans 64 Ki values, which gets direct-indexed group
// ids, and one that spans 64 Ki + 1, which stays hashed, against the
// reference, on one and two cores and simulated. A one-window input keeps
// the hash table whatever its key span.
func TestGroupByDirectIdsAtKeySpan(t *testing.T) {
	const n = 3 << 16
	space := mach.NewAddrSpace()
	k64, k65, w, vs := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	rng := rand.New(rand.NewSource(9))
	for i := range vs {
		w[i] = int32(i >> 16)
		k64[i] = int32(i*7%(1<<16)) - 1000
		k65[i] = int32(i % (1<<16 + 1))
		vs[i] = int32(rng.Intn(2000) - 1000)
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "k64", k64))
	tbl.MustAddColumn(column.FromInt32s(space, "k65", k65))
	tbl.MustAddColumn(column.FromInt32s(space, "w", w))
	v := column.FromInt32s(space, "v", vs)
	for i := 0; i < n; i += 5 {
		v.SetNull(i)
	}
	tbl.MustAddColumn(v)
	cat := testCatalog{"t": tbl}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	two := nativeOptions()
	two.Cores = 2
	for _, tc := range []struct {
		key, where string
		direct     bool
	}{
		{"k64", "k64 >= -1000", true},
		{"k65", "k65 >= 0", false},
		{"k64", "w = 1", false}, // the zone maps keep one window
	} {
		rows := all
		if !tc.direct && tc.key == "k64" {
			rows = all[1<<16 : 2<<16]
		}
		want := referenceGroupBy(tbl, []string{tc.key}, "v", rows)
		sql := fmt.Sprintf("SELECT %s, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t WHERE %s GROUP BY %[1]s", tc.key, tc.where)
		for name, run := range map[string]struct {
			opts Options
			cpu  *mach.CPU
		}{
			"native":    {nativeOptions(), nil},
			"two-cores": {two, nil},
			"simulated": {DefaultOptions(), mach.New(mach.Default())},
		} {
			pp, res, err := runGroupSQL(t, context.Background(), cat, sql, run.opts, run.cpu)
			if err != nil {
				t.Fatalf("%s %s: %v", name, sql, err)
			}
			if got := renderRows(res); got != want {
				t.Errorf("%s %s: rows differ from the reference (%d vs %d bytes)", name, sql, len(got), len(want))
			}
			if g := pp.Root.(*groupOp); g.direct != tc.direct {
				t.Errorf("%s %s: direct ids %v, want %v", name, sql, g.direct, tc.direct)
			}
		}
	}
}

// TestGroupByMemoryBudgetAtGroupCount pins where ErrMemoryBudget fires: a
// budget that holds the scan's one in-flight batch plus k groups admits
// exactly k groups, and the k+1-th group's charge is the one refused.
func TestGroupByMemoryBudgetAtGroupCount(t *testing.T) {
	const n, distinct = 5000, 300
	space := mach.NewAddrSpace()
	ks, vs := make([]int32, n), make([]int32, n)
	for i := range ks {
		ks[i] = int32(i % distinct)
		vs[i] = int32(i)
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "k", ks))
	tbl.MustAddColumn(column.FromInt32s(space, "v", vs))
	cat := testCatalog{"t": tbl}
	const sql = "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k"
	perGroup := int64(bytesPerGroupBase + 3*bytesPerGroupCell) // one key, two items
	inflight := int64(n * bytesPerPosition)                    // the full scan's one batch

	for _, k := range []int64{0, 1, 17, distinct - 1, distinct} {
		acct := govern.NewAccountant(inflight + k*perGroup)
		ctx := govern.WithAccountant(context.Background(), acct)
		pp, res, err := runGroupSQL(t, ctx, cat, sql, nativeOptions(), nil)
		if k == distinct {
			if err != nil || len(res.Rows) != distinct {
				t.Fatalf("budget for all %d groups: err=%v rows=%d", distinct, err, len(res.Rows))
			}
			continue
		}
		var mbe *govern.MemoryBudgetError
		if !errors.As(err, &mbe) || !errors.Is(err, govern.ErrMemoryBudget) {
			t.Fatalf("budget for %d groups: err = %v, want ErrMemoryBudget", k, err)
		}
		if mbe.UsedBytes != inflight+k*perGroup || mbe.RequestedBytes != perGroup {
			t.Errorf("budget for %d groups: refused %d B at %d B used, want %d B at %d B", k, mbe.RequestedBytes, mbe.UsedBytes, perGroup, inflight+k*perGroup)
		}
		if st := pp.OperatorStats()[0]; st.Groups != k {
			t.Errorf("budget for %d groups: sink holds %d groups", k, st.Groups)
		}
	}
}

// TestGroupByAllocsIndependentOfGroups checks that the sink's allocations
// do not scale with the number of groups: a 16 Ki-group query allocates
// about as often as a 1 Ki-group one over the same rows (growth of the
// flat per-group slices is logarithmic).
func TestGroupByAllocsIndependentOfGroups(t *testing.T) {
	const n = 64 << 10
	rng := rand.New(rand.NewSource(3))
	space := mach.NewAddrSpace()
	small, large, vs := make([]int32, n), make([]int32, n), make([]int32, n)
	for i := range vs {
		small[i] = int32(rng.Intn(1 << 10))
		large[i] = int32(i % (16 << 10))
		vs[i] = int32(rng.Intn(1000))
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "g1k", small))
	tbl.MustAddColumn(column.FromInt32s(space, "g16k", large))
	tbl.MustAddColumn(column.FromInt32s(space, "v", vs))
	cat := testCatalog{"t": tbl}
	allocs := func(key string) float64 {
		sql := fmt.Sprintf("SELECT %s, SUM(v), MAX(v) FROM t GROUP BY %s", key, key)
		pp, err := Translate(plan2(t, cat, sql, true), jit.NewCompiler(), nativeOptions())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := pp.Run(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1k, a16k := allocs("g1k"), allocs("g16k")
	t.Logf("allocs per query: 1 Ki groups %.0f, 16 Ki groups %.0f", a1k, a16k)
	if a16k > a1k+64 {
		t.Errorf("16 Ki groups allocate %.0f times per query, 1 Ki groups %.0f: allocations scale with groups", a16k, a1k)
	}
}

// TestPollSpanMatchesPerRowPolls checks that the block-wise poll fires for
// exactly the spans that contain a row where the per-row poll would.
func TestPollSpanMatchesPerRowPolls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, from := range []int{0, 1, pollEvery - 3, pollEvery, 3*pollEvery + 5} {
		for _, n := range []int{0, 1, 3, 4, pollEvery - 1, pollEvery, 2 * pollEvery} {
			want := false
			for i := from; i < from+n; i++ {
				want = want || pollCtx(ctx, i) != nil
			}
			if got := pollSpan(ctx, from, n) != nil; got != want {
				t.Errorf("pollSpan(from=%d, n=%d) fired=%v, per-row polls fired=%v", from, n, got, want)
			}
		}
	}
}

// BenchmarkGroupBySink times the aggregation sink on the native path over
// 256 Ki int32 rows (four windows) that all qualify, at zero keys, 100 and
// 16 Ki groups, over a value column with and without NULLs (1 % NULL), and
// grouped over a hash join to a 16 Ki-row dimension, on 1 and 2 cores.
// sink_ns/row is the sink's own time (its WallNs minus its input's) per
// input row; on 2 cores the input's time sums both cores, so read
// query_ns/row there, the whole plan's wall-clock time per input row.
func BenchmarkGroupBySink(b *testing.B) {
	const n, m = 256 << 10, 16 << 10
	rng := rand.New(rand.NewSource(1))
	space := mach.NewAddrSpace()
	tbl := column.NewTable(space, "t")
	for _, c := range []struct {
		name string
		max  int
	}{{"a", 1000}, {"g", 100}, {"h", m}, {"v", 1000}, {"vn", 1000}, {"fk", m}} {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(rng.Intn(c.max))
		}
		col := column.FromInt32s(space, c.name, vals)
		if c.name == "vn" {
			for i := 0; i < n; i += 100 {
				col.SetNull(i)
			}
		}
		tbl.MustAddColumn(col)
	}
	dim := column.NewTable(space, "d")
	dk, w := make([]int32, m), make([]int32, m)
	for i, p := range rng.Perm(m) {
		dk[i], w[i] = int32(p), int32(rng.Intn(1000))
	}
	dim.MustAddColumn(column.FromInt32s(space, "dk", dk))
	dim.MustAddColumn(column.FromInt32s(space, "w", w))
	cat := testCatalog{"t": tbl, "d": dim}
	for _, cores := range []int{1, 2} {
		opts := nativeOptions()
		opts.Cores = cores
		for _, q := range []struct{ name, sql string }{
			{"sum", "SELECT SUM(v) FROM t WHERE a >= 0"},
			{"sum_null", "SELECT SUM(vn) FROM t WHERE a >= 0"},
			{"g100_sum_count", "SELECT g, SUM(v), COUNT(*) FROM t WHERE a >= 0 GROUP BY g"},
			{"g100_sum_null", "SELECT g, SUM(vn), COUNT(*) FROM t WHERE a >= 0 GROUP BY g"},
			{"g100_min_count", "SELECT g, MIN(v), COUNT(*) FROM t WHERE a >= 0 GROUP BY g"},
			{"g16k_sum", "SELECT h, SUM(v) FROM t WHERE a >= 0 GROUP BY h"},
			{"g16k_max", "SELECT h, MAX(v) FROM t WHERE a >= 0 GROUP BY h"},
			{"join_g100_sum", "SELECT t.g, SUM(d.w) FROM t JOIN d ON t.fk = d.dk WHERE t.a >= 0 GROUP BY t.g"},
		} {
			b.Run(fmt.Sprintf("cores=%d/%s", cores, q.name), func(b *testing.B) {
				pp, err := Translate(plan2(b, cat, q.sql, true), jit.NewCompiler(), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pp.Run(context.Background(), nil); err != nil {
						b.Fatal(err)
					}
				}
				st := pp.OperatorStats()
				b.ReportMetric(float64(st[0].WallNs-st[1].WallNs)/float64(b.N)/n, "sink_ns/row")
				b.ReportMetric(float64(st[0].WallNs)/float64(b.N)/n, "query_ns/row")
			})
		}
	}
}

// BenchmarkHashJoin times the hash join on the native path: 16 Ki unique
// build keys against 256 Ki probe rows that all pass the probe scan, with
// the unfiltered build side and with a 5 % one whose Bloom filter is
// transferred into the probe scan. join_ns/probe_row is the join's own
// time (its WallNs, which includes the build, minus its probe child's)
// per probe-table row.
func BenchmarkHashJoin(b *testing.B) {
	const n, m = 256 << 10, 16 << 10
	rng := rand.New(rand.NewSource(1))
	space := mach.NewAddrSpace()
	fact := column.NewTable(space, "fact")
	fk, a := make([]int32, n), make([]int32, n)
	for i := range fk {
		fk[i], a[i] = int32(rng.Intn(m)), int32(rng.Intn(1000))
	}
	fact.MustAddColumn(column.FromInt32s(space, "fk", fk))
	fact.MustAddColumn(column.FromInt32s(space, "a", a))
	dim := column.NewTable(space, "dim")
	dk, w := make([]int32, m), make([]int32, m)
	for i, p := range rng.Perm(m) {
		dk[i], w[i] = int32(p), int32(rng.Intn(1000))
	}
	dim.MustAddColumn(column.FromInt32s(space, "dk", dk))
	dim.MustAddColumn(column.FromInt32s(space, "w", w))
	cat := testCatalog{"fact": fact, "dim": dim}
	for _, q := range []struct{ name, sql string }{
		{"unfiltered", "SELECT COUNT(*) FROM fact JOIN dim ON fact.fk = dim.dk WHERE fact.a >= 0"},
		{"bloom5", "SELECT COUNT(*) FROM fact JOIN dim ON fact.fk = dim.dk WHERE fact.a >= 0 AND dim.w < 50"},
	} {
		b.Run(q.name, func(b *testing.B) {
			pp, err := Translate(plan2(b, cat, q.sql, true), jit.NewCompiler(), nativeOptions())
			if err != nil {
				b.Fatal(err)
			}
			var jo *joinOp
			for op := pp.Root; jo == nil; op = op.(interface{ child() Operator }).child() {
				jo, _ = op.(*joinOp)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pp.Run(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
			own := jo.Stats().WallNs - jo.probe.Stats().WallNs
			b.ReportMetric(float64(own)/float64(b.N)/n, "join_ns/probe_row")
		})
	}
}
