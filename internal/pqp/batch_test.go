package pqp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
	"fusedscan/internal/sqlparse"
)

// nullFixture builds a table with NULLs sprinkled into both columns and
// returns the catalog plus the table.
func nullFixture(t testing.TB, n int, seed int64) (testCatalog, *column.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := mach.NewAddrSpace()
	av := make([]int32, n)
	bv := make([]int32, n)
	for i := 0; i < n; i++ {
		av[i] = int32(rng.Intn(10))
		bv[i] = int32(rng.Intn(10))
	}
	tbl := column.NewTable(space, "t")
	ca := column.FromInt32s(space, "a", av)
	cb := column.FromInt32s(space, "b", bv)
	for i := 0; i < n; i++ {
		if rng.Intn(17) == 0 {
			ca.SetNull(i)
		}
		if rng.Intn(23) == 0 {
			cb.SetNull(i)
		}
	}
	tbl.MustAddColumn(ca)
	tbl.MustAddColumn(cb)
	return testCatalog{"t": tbl}, tbl
}

// runSQL translates and executes sql under the given options.
func runSQL(t testing.TB, cat testCatalog, sql string, opts Options, optimize bool) QueryResult {
	t.Helper()
	lp := plan2(t, cat, sql, optimize)
	pp, err := Translate(lp, jit.NewCompiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// plan2 is plan for testing.TB (the fuzz target cannot use *testing.T).
func plan2(t testing.TB, cat testCatalog, sql string, optimize bool) *lqp.Plan {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lqp.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	if optimize {
		lqp.NewOptimizer().Optimize(lp)
	}
	return lp
}

// renderResult flattens a QueryResult into a canonical string so two
// executions can be compared byte-for-byte.
func renderResult(res QueryResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "count=%d agg=%v labels=%v cols=%v\n", res.Count, res.Aggregates, res.AggLabels, res.Columns)
	for ri, row := range res.Rows {
		for i, v := range row {
			if res.RowNulls != nil && res.RowNulls[ri][i] {
				sb.WriteString("NULL\t")
				continue
			}
			sb.WriteString(v.String() + "\t")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBatchBoundaryChunkSizes runs the same queries with batch capacities
// that are not multiples of the register width (and smaller than the
// table), checking results are byte-identical to a whole-table batch. This
// covers partial tail chunks, chunk-relative rebasing, and multi-batch
// flow through every operator.
func TestBatchBoundaryChunkSizes(t *testing.T) {
	cat, _ := nullFixture(t, 10007, 3)
	queries := []string{
		"SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2",
		"SELECT a, b FROM t WHERE a = 5",
		"SELECT a FROM t WHERE a >= 3 ORDER BY b DESC LIMIT 9",
		"SELECT SUM(b), MIN(b), MAX(b), AVG(b) FROM t WHERE a < 4",
		"SELECT * FROM t WHERE a = 5 AND b >= 7 LIMIT 3",
		"SELECT COUNT(*) FROM t",
	}
	for _, fused := range []bool{true, false} {
		ref := DefaultOptions()
		ref.UseFused = fused
		ref.BatchRows = 1 << 20 // whole table in one batch
		for _, sql := range queries {
			want := renderResult(runSQL(t, cat, sql, ref, true))
			for _, batch := range []int{7, 63, 100, 1000, 4096} {
				opts := ref
				opts.BatchRows = batch
				got := renderResult(runSQL(t, cat, sql, opts, true))
				if got != want {
					t.Errorf("fused=%v batch=%d %q:\ngot  %swant %s", fused, batch, sql, got, want)
				}
			}
		}
	}
}

// TestEmptyBatches drives a plan where whole batches produce no matches
// (matches exist only in the final partial batch).
func TestEmptyBatches(t *testing.T) {
	space := mach.NewAddrSpace()
	n := 1000
	av := make([]int32, n)
	for i := 0; i < n; i++ {
		// Alternate below/above the needle so every chunk's [min, max]
		// straddles 42: zone-map pruning cannot skip any chunk, and the
		// leading batches genuinely flow empty.
		if i%2 == 0 {
			av[i] = 1
		} else {
			av[i] = 100
		}
	}
	for i := 990; i < n; i++ {
		av[i] = 42 // matches only in the tail
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "a", av))
	cat := testCatalog{"t": tbl}

	opts := DefaultOptions()
	opts.BatchRows = 64
	res := runSQL(t, cat, "SELECT a FROM t WHERE a = 42", opts, true)
	if res.Count != 10 || len(res.Rows) != 10 {
		t.Fatalf("count=%d rows=%d, want 10/10", res.Count, len(res.Rows))
	}
	// The pipeline must have flowed empty batches, not stopped at one.
	lp := plan2(t, cat, "SELECT a FROM t WHERE a = 42", true)
	pp, err := Translate(lp, jit.NewCompiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Run(context.Background(), mach.New(mach.Default())); err != nil {
		t.Fatal(err)
	}
	stats := pp.OperatorStats()
	scanStats := stats[len(stats)-1]
	if scanStats.Batches != int64((n+63)/64) {
		t.Errorf("scan batches = %d, want %d", scanStats.Batches, (n+63)/64)
	}
	if scanStats.ChunksPruned != 0 {
		t.Errorf("ChunksPruned = %d, want 0 (every chunk straddles the needle)", scanStats.ChunksPruned)
	}
}

// TestAllNullBatches checks batches whose rows are entirely NULL: NULL
// never satisfies a comparison, IS NULL selects it, and aggregates skip it.
func TestAllNullBatches(t *testing.T) {
	space := mach.NewAddrSpace()
	n := 300
	av := make([]int32, n)
	for i := 0; i < n; i++ {
		av[i] = 7
	}
	ca := column.FromInt32s(space, "a", av)
	for i := 0; i < 100; i++ {
		ca.SetNull(i) // first 100 rows NULL: with BatchRows=50, two all-NULL batches
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(ca)
	cat := testCatalog{"t": tbl}

	opts := DefaultOptions()
	opts.BatchRows = 50
	if res := runSQL(t, cat, "SELECT COUNT(*) FROM t WHERE a = 7", opts, true); res.Count != 200 {
		t.Errorf("a = 7 count = %d, want 200 (NULLs must not match)", res.Count)
	}
	if res := runSQL(t, cat, "SELECT COUNT(*) FROM t WHERE a IS NULL", opts, true); res.Count != 100 {
		t.Errorf("IS NULL count = %d, want 100", res.Count)
	}
	res := runSQL(t, cat, "SELECT SUM(a), AVG(a) FROM t", opts, true)
	if res.Aggregates[0].Int() != 200*7 {
		t.Errorf("sum = %v, want %d", res.Aggregates[0], 200*7)
	}
	if res.Aggregates[1].Float() != 7 {
		t.Errorf("avg = %v, want 7 (NULLs excluded from the divisor)", res.Aggregates[1])
	}
	res = runSQL(t, cat, "SELECT a FROM t WHERE a IS NULL LIMIT 5", opts, true)
	if len(res.Rows) != 5 || res.RowNulls == nil || !res.RowNulls[0][0] {
		t.Errorf("projected NULL rows = %d nulls=%v", len(res.Rows), res.RowNulls)
	}
}

// TestLimitShortCircuitCounters is the regression for the pipelined LIMIT:
// a LIMIT k over a large table must stop after the first qualifying
// batches on both the fused and the scalar (SISD) path — observable via
// the scan operator's row counters staying far below the table size.
func TestLimitShortCircuitCounters(t *testing.T) {
	n := 1 << 20 // 1M rows; every row matches
	space := mach.NewAddrSpace()
	av := make([]int32, n)
	for i := range av {
		av[i] = 5
	}
	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(column.FromInt32s(space, "a", av))
	cat := testCatalog{"t": tbl}

	for _, fused := range []bool{true, false} {
		opts := DefaultOptions()
		opts.UseFused = fused
		lp := plan2(t, cat, "SELECT a FROM t WHERE a = 5 LIMIT 10", true)
		pp, err := Translate(lp, jit.NewCompiler(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pp.Run(context.Background(), mach.New(mach.Default()))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 || res.Count != 10 {
			t.Fatalf("fused=%v rows=%d count=%d", fused, len(res.Rows), res.Count)
		}
		stats := pp.OperatorStats()
		scanStats := stats[len(stats)-1]
		if !strings.Contains(scanStats.Name, "TableScan") {
			t.Fatalf("deepest operator = %q", scanStats.Name)
		}
		// One batch of matches (64Ki) satisfies LIMIT 10; the remaining 15
		// batches must never be scanned.
		if scanStats.Batches != 1 {
			t.Errorf("fused=%v scan emitted %d batches, want 1", fused, scanStats.Batches)
		}
		if scanStats.RowsOut >= int64(n)/4 {
			t.Errorf("fused=%v scan produced %d rows for LIMIT 10 over %d (no short-circuit)", fused, scanStats.RowsOut, n)
		}
	}
}

// TestCountOnlyStreamsNoPositions checks that a zero-key all-COUNT
// aggregate runs the scan in count-only mode (no selection vectors
// materialized), and that any keyed or non-COUNT sink keeps positions.
func TestCountOnlyStreamsNoPositions(t *testing.T) {
	cat, _, want := fixture(t, 5000)
	for _, tc := range []struct {
		sql       string
		countOnly bool
		count     int // result Count: qualifying rows, or groups
	}{
		{"SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2", true, want},
		{"SELECT COUNT(*), SUM(a) FROM t WHERE a = 5 AND b = 2", false, want},
		{"SELECT a, COUNT(*) FROM t WHERE a = 5 AND b = 2 GROUP BY a", false, 1},
	} {
		lp := plan2(t, cat, tc.sql, true)
		pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		agg, ok := pp.Root.(*groupOp)
		if !ok {
			t.Fatalf("%s: root = %T", tc.sql, pp.Root)
		}
		sc, ok := agg.input.(*scanOp)
		if !ok {
			t.Fatalf("%s: aggregate input = %T", tc.sql, agg.input)
		}
		if sc.countOnly != tc.countOnly {
			t.Errorf("%s: scan countOnly = %v, want %v", tc.sql, sc.countOnly, tc.countOnly)
		}
		res, err := pp.Run(context.Background(), mach.New(mach.Default()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(tc.count) {
			t.Fatalf("%s: count = %d, want %d", tc.sql, res.Count, tc.count)
		}
		if st := pp.OperatorStats()[0]; (len(agg.keys) == 0) != strings.HasPrefix(st.Name, "Aggregate[") || (len(agg.keys) == 0 && st.Groups != 0) {
			t.Errorf("%s: sink stats %s", tc.sql, st)
		}
	}
}

// TestParallelPipelineMatchesSequential runs the same plan single-core and
// with 4 cores and requires byte-identical results (the ordered morsel
// merge guarantee).
func TestParallelPipelineMatchesSequential(t *testing.T) {
	cat, _ := nullFixture(t, 50000, 11)
	queries := []string{
		"SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2",
		"SELECT a, b FROM t WHERE a = 5 AND b >= 4",
		"SELECT a FROM t WHERE a >= 3 ORDER BY b LIMIT 7",
		"SELECT SUM(b) FROM t WHERE a < 4",
	}
	for _, sql := range queries {
		seq := DefaultOptions()
		par := DefaultOptions()
		par.Cores = 4
		par.BatchRows = 1 << 12
		par.Params = mach.Default()
		want := renderResult(runSQL(t, cat, sql, seq, true))
		got := renderResult(runSQL(t, cat, sql, par, true))
		if got != want {
			t.Errorf("%q parallel != sequential:\ngot  %swant %s", sql, got, want)
		}
	}
}

// referenceExecute is the oracle for the fuzz test: it evaluates a
// predicate chain with scan.Reference and applies scalar sort / limit /
// projection / aggregation directly, sharing no code with the pipeline.
func referenceExecute(tbl *column.Table, ch scan.Chain, orderBy string, desc bool, limit int, projCols []string, countStar bool) (string, error) {
	ref := scan.Reference(ch, true)
	pos := ref.Positions
	if countStar {
		return fmt.Sprintf("count=%d", ref.Count), nil
	}
	if orderBy != "" {
		col, err := tbl.Column(orderBy)
		if err != nil {
			return "", err
		}
		// Stable sort, NULLs last — must match sortOp.
		idx := make([]int, len(pos))
		for i := range idx {
			idx[i] = i
		}
		lessVal := func(i, j int) bool {
			pi, pj := int(pos[idx[i]]), int(pos[idx[j]])
			ni, nj := col.Null(pi), col.Null(pj)
			switch {
			case ni && nj:
				return false
			case ni:
				return false
			case nj:
				return true
			}
			if desc {
				return col.Value(pi).Compare(expr.Gt, col.Value(pj))
			}
			return col.Value(pi).Compare(expr.Lt, col.Value(pj))
		}
		stableSort(idx, lessVal)
		sorted := make([]uint32, len(pos))
		for o, i := range idx {
			sorted[o] = pos[i]
		}
		pos = sorted
	}
	n := len(pos)
	if limit >= 0 && limit < n {
		n = limit
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "count=%d\n", n)
	for _, p := range pos[:n] {
		for _, name := range projCols {
			col, err := tbl.Column(name)
			if err != nil {
				return "", err
			}
			if col.Null(int(p)) {
				sb.WriteString("NULL\t")
			} else {
				sb.WriteString(col.Value(int(p)).String() + "\t")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// stableSort is insertion sort: trivially stable and independent of the
// standard library implementation the pipeline uses.
func stableSort(idx []int, less func(i, j int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// FuzzBatchedPipeline compares the batched pipeline against the scalar
// reference executor on randomized plans, tables and batch sizes.
func FuzzBatchedPipeline(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), int8(-1), false, uint16(64))
	f.Add(int64(7), uint8(1), uint8(1), int8(5), true, uint16(7))
	f.Add(int64(42), uint8(3), uint8(2), int8(0), false, uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, npreds, sortSel uint8, limit int8, fused bool, batch uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(3000)
		space := mach.NewAddrSpace()
		cols := []string{"a", "b", "c"}
		tbl := column.NewTable(space, "t")
		for _, name := range cols {
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(rng.Intn(8))
			}
			c := column.FromInt32s(space, name, vals)
			for i := 0; i < n; i++ {
				if rng.Intn(13) == 0 {
					c.SetNull(i)
				}
			}
			tbl.MustAddColumn(c)
		}
		cat := testCatalog{"t": tbl}

		// Random WHERE chain (1..3 predicates), deduplicated per column to
		// keep the SQL well-formed.
		ops := []string{"=", "<", "<=", ">", ">="}
		k := 1 + int(npreds)%3
		var whereParts []string
		var ch scan.Chain
		perm := rng.Perm(len(cols))
		for i := 0; i < k; i++ {
			name := cols[perm[i]]
			col, _ := tbl.Column(name)
			op := ops[rng.Intn(len(ops))]
			val := rng.Intn(8)
			whereParts = append(whereParts, fmt.Sprintf("%s %s %d", name, op, val))
			ch = append(ch, scan.Pred{Col: col, Op: mustOp(op), Value: mustVal(col, fmt.Sprint(val))})
		}
		if err := ch.Validate(); err != nil {
			t.Skip()
		}

		orderBy := ""
		desc := false
		if sortSel%3 != 0 {
			orderBy = cols[int(sortSel)%len(cols)]
			desc = sortSel%2 == 0
		}
		lim := int(limit)
		if lim < -1 {
			lim = -1
		}

		sql := "SELECT a, c FROM t WHERE " + strings.Join(whereParts, " AND ")
		countStar := limit%5 == 0 && orderBy == ""
		if countStar {
			sql = "SELECT COUNT(*) FROM t WHERE " + strings.Join(whereParts, " AND ")
		}
		if orderBy != "" {
			sql += " ORDER BY " + orderBy
			if desc {
				sql += " DESC"
			}
		}
		if lim >= 0 {
			sql += fmt.Sprintf(" LIMIT %d", lim)
		}

		opts := DefaultOptions()
		opts.UseFused = fused
		opts.BatchRows = 1 + int(batch)
		lp := plan2(t, cat, sql, true)
		pp, err := Translate(lp, jit.NewCompiler(), opts)
		if err != nil {
			t.Fatalf("translate %q: %v", sql, err)
		}
		res, err := pp.Run(context.Background(), mach.New(mach.Default()))
		if err != nil {
			t.Fatalf("run %q: %v", sql, err)
		}

		if countStar {
			want, err := referenceExecute(tbl, ch, "", false, -1, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("count=%d", res.Count); got != want {
				t.Fatalf("%q (batch=%d): got %s, want %s", sql, opts.BatchRows, got, want)
			}
			return
		}
		want, err := referenceExecute(tbl, ch, orderBy, desc, lim, []string{"a", "c"}, false)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		fmt.Fprintf(&got, "count=%d\n", len(res.Rows))
		for ri, row := range res.Rows {
			for i, v := range row {
				if res.RowNulls != nil && res.RowNulls[ri][i] {
					got.WriteString("NULL\t")
				} else {
					got.WriteString(v.String() + "\t")
				}
			}
			got.WriteByte('\n')
		}
		if got.String() != want {
			t.Fatalf("%q (batch=%d fused=%v):\ngot:\n%s\nwant:\n%s", sql, opts.BatchRows, fused, got.String(), want)
		}
	})
}
