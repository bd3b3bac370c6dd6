package fusedscan

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"fusedscan/internal/expr"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/pqp"
	"fusedscan/internal/sqlparse"
)

// extremeValues are per-type literals covering each type's limits and, for
// floats, NaN, both infinities, both zeros, subnormals and round-trip
// boundaries.
var extremeValues = map[expr.Type][]string{
	expr.Int8:    {"-128", "127", "0", "-1", "1"},
	expr.Int16:   {"-32768", "32767", "0", "-1", "1"},
	expr.Int32:   {"-2147483648", "2147483647", "0", "-1", "1"},
	expr.Int64:   {"-9223372036854775808", "9223372036854775807", "0", "-1", "1"},
	expr.Uint8:   {"0", "255", "1", "128", "127"},
	expr.Uint16:  {"0", "65535", "1", "32768", "32767"},
	expr.Uint32:  {"0", "4294967295", "1", "2147483648", "2147483647"},
	expr.Uint64:  {"0", "18446744073709551615", "1", "9223372036854775808", "9223372036854775807"},
	expr.Float32: {"NaN", "+Inf", "-Inf", "-0", "0", "1e-45", "1.1754942e-38", "3.4028235e+38", "0.1", "16777217"},
	expr.Float64: {"NaN", "+Inf", "-Inf", "-0", "0", "5e-324", "2.225073858507201e-308", "1.7976931348623157e+308", "0.1", "1e+21"},
}

// TestRenderBatchMatchesValueString: for every column type, the batch
// renderer writes each cell exactly as expr.Value.String does, and a NULL
// cell as "NULL"; the aggregate row goes through the same renderer.
func TestRenderBatchMatchesValueString(t *testing.T) {
	var cols []pqp.Vec
	var want [][]string
	rows := 0
	for _, typ := range expr.AllTypes() {
		rows = max(rows, len(extremeValues[typ])+1)
	}
	want = make([][]string, rows)
	for i := range want {
		want[i] = make([]string, expr.NumTypes)
	}
	for c, typ := range expr.AllTypes() {
		v := pqp.Vec{Type: typ, Bits: make([]uint64, rows), Nulls: make([]bool, rows)}
		for i := range rows {
			lit := "0"
			if i < len(extremeValues[typ]) {
				lit = extremeValues[typ][i]
			}
			val, err := expr.ParseValue(typ, lit)
			if err != nil {
				t.Fatal(err)
			}
			v.Bits[i] = val.Bits
			want[i][c] = val.String()
			if i == rows-1 {
				v.Nulls[i], want[i][c] = true, "NULL"
			}
		}
		cols = append(cols, v)
	}
	var r batchRenderer
	if got := r.render(cols); !reflect.DeepEqual(got, want) {
		t.Fatalf("render:\n got %q\nwant %q", got, want)
	}
	// Scratch reuse must not leak into an earlier batch's strings.
	first := r.render(cols[:1])
	r.render(cols[1:2])
	for i, row := range first {
		if row[0] != want[i][0] {
			t.Fatalf("row %d of an earlier batch changed to %q", i, row[0])
		}
	}
	// The float spellings Value.String defines.
	for _, s := range []string{"NaN", "+Inf", "-Inf", "-0", "5e-324"} {
		if !slicesContain(want, s) {
			t.Errorf("no cell rendered as %q", s)
		}
	}
	aggs := []expr.Value{expr.NewInt(expr.Int64, -5), expr.NewFloat(expr.Float64, math.Inf(-1)), {Type: expr.Uint64, Bits: math.MaxUint64}}
	if got, want := renderAggregates(aggs, []bool{false, false, true}), []string{"-5", "-Inf", "NULL"}; !reflect.DeepEqual(got, want) {
		t.Errorf("renderAggregates = %q, want %q", got, want)
	}
	if r.render(nil) != nil || r.render([]pqp.Vec{{Type: expr.Int32}}) != nil {
		t.Error("an empty batch renders rows")
	}
}

func slicesContain(rows [][]string, s string) bool {
	for _, r := range rows {
		for _, c := range r {
			if c == s {
				return true
			}
		}
	}
	return false
}

// planRunRows plans sql like the engine does and runs it with Plan.Run,
// rendering the QueryResult's value rows cell by cell with
// expr.Value.String: the reference the engine's vectors and renderer must
// reproduce.
func planRunRows(t *testing.T, e *Engine, sql string, cfg Config) [][]string {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lqp.Build(sel, e)
	if err != nil {
		t.Fatal(err)
	}
	e.optimizer.Optimize(plan)
	opts, err := cfg.options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Params = e.params
	phys, err := pqp.Translate(plan, e.compiler, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cpu *mach.CPU
	if cfg.Simulate {
		cpu = mach.New(e.params)
	}
	qr, err := phys.Run(context.Background(), cpu)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for ri, row := range qr.Rows {
		r := make([]string, len(row))
		for i, v := range row {
			r[i] = v.String()
			if qr.RowNulls != nil && qr.RowNulls[ri][i] {
				r[i] = "NULL"
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// buildRenderEngine registers the tables the streamed-vs-materialized
// test reads: every type at its extremes with a NULL row, a 150 000-row
// table with NULLs, a bit-packed column and NULL group keys, and a small
// join pair whose build side has NULLs.
func buildRenderEngine(t *testing.T) *Engine {
	t.Helper()
	eng := NewEngine()
	tb := eng.CreateTable("types")
	for _, typ := range expr.AllTypes() {
		vals := append([]string{}, extremeValues[typ]...)
		for len(vals) < 11 {
			vals = append(vals, "7")
		}
		tb.Column("c_"+typ.String(), typ.String(), vals)
		tb.NullsAt("c_"+typ.String(), []int{10})
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}

	const n = 150_000
	a, b, p, k := make([]int32, n), make([]int32, n), make([]int32, n), make([]int64, n)
	var bNull, kNull []int
	for i := range n {
		a[i], b[i], p[i], k[i] = int32(i), int32(i%1000-500), int32(i%1000), int64(i%40)
		if i%7 == 0 {
			bNull = append(bNull, i)
		}
		if i%700 == 0 {
			k[i] = 999 // a group whose b values are all NULL
		} else if i%11 == 0 {
			kNull = append(kNull, i)
		}
	}
	big := eng.CreateTable("big")
	big.Int32("a", a).Int32("b", b).Int32("p", p).Int64("k", k)
	big.NullsAt("b", bNull).NullsAt("k", kNull).Pack("p")
	if err := big.Finish(); err != nil {
		t.Fatal(err)
	}

	fk, fu := make([]int32, 3000), make([]int32, 3000)
	for i := range fk {
		fk[i], fu[i] = int32(i%130), int32(i%5)
	}
	dk, dv, dy := make([]int32, 200), make([]string, 200), make([]string, 200)
	var dvNull []int
	for i := range dk {
		dk[i], dv[i], dy[i] = int32(i%100), strconv.Itoa(i%9), fmt.Sprint(float32(i)/3)
		if i%13 == 0 {
			dvNull = append(dvNull, i)
		}
	}
	f := eng.CreateTable("f")
	f.Int32("k", fk).Int32("u", fu)
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	d := eng.CreateTable("d")
	d.Int32("k", dk).Column("v", "int16", dv).Column("y", "float32", dy).NullsAt("v", dvNull)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStreamedRowsMatchResultAndPlanRun: the rows a streamed query hands
// its callback, the rows of the same query's Result, and the rows Plan.Run
// materializes are the same, on both execution paths — for every type at
// its extremes, a join's build-side columns, GROUP BY with NULL keys and a
// NULL aggregate, a LIMIT cut mid-batch, a packed column, and the
// materialization cap (which binds Result and Plan.Run, not the stream).
func TestStreamedRowsMatchResultAndPlanRun(t *testing.T) {
	eng := buildRenderEngine(t)
	queries := []struct {
		sql    string
		capped bool
	}{
		{sql: "SELECT * FROM types"},
		{sql: "SELECT f.k, d.v, d.y, f.u FROM f JOIN d ON f.k = d.k WHERE f.u >= 1"},
		{sql: "SELECT k, COUNT(*), SUM(b), MIN(b), AVG(b) FROM big GROUP BY k"},
		{sql: "SELECT a, b, p FROM big WHERE p < 10 LIMIT 1500"},
		{sql: "SELECT p, b FROM big WHERE a < 70000"},
		{sql: "SELECT a, b, p, k FROM big", capped: true},
	}
	for _, cfg := range []Config{DefaultConfig(), NativeConfig()} {
		for _, q := range queries {
			var streamed [][]string
			sres, err := eng.QueryWith(context.Background(), q.sql, QueryOptions{Config: &cfg,
				Stream: func(_ []string, rows [][]string) error {
					streamed = append(streamed, rows...)
					return nil
				}})
			if err != nil {
				t.Fatalf("%q streamed: %v", q.sql, err)
			}
			res, err := eng.QueryWith(context.Background(), q.sql, QueryOptions{Config: &cfg})
			if err != nil {
				t.Fatalf("%q: %v", q.sql, err)
			}
			if len(res.Rows) == 0 || sres.Count != res.Count {
				t.Fatalf("%q: %d rows, counts %d streamed vs %d", q.sql, len(res.Rows), sres.Count, res.Count)
			}
			if ref := planRunRows(t, eng, q.sql, cfg); !reflect.DeepEqual(res.Rows, ref) {
				t.Fatalf("%q (simulate=%v): Result.Rows differ from Plan.Run's", q.sql, cfg.Simulate)
			}
			if q.capped {
				if len(res.Rows) != 100_000 || len(streamed) != 150_000 {
					t.Fatalf("%q: %d materialized, %d streamed rows; want the cap 100000 and all 150000", q.sql, len(res.Rows), len(streamed))
				}
				streamed = streamed[:len(res.Rows)]
			}
			if !reflect.DeepEqual(streamed, res.Rows) {
				t.Fatalf("%q (simulate=%v): streamed rows differ from Result.Rows", q.sql, cfg.Simulate)
			}
		}
	}
}

// TestStreamedProjectionAllocsPerBatch: a ~20 000-row streamed projection
// over four pipeline batches allocates a per-batch constant, not per row.
func TestStreamedProjectionAllocsPerBatch(t *testing.T) {
	const n = 1 << 18
	a, b := make([]int32, n), make([]int32, n)
	var bNull []int
	for i := range n {
		a[i], b[i] = int32(i%97), int32(i)
		if i%5 == 0 {
			bNull = append(bNull, i)
		}
	}
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("a", a).Int32("b", b).NullsAt("b", bNull)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	cfg := NativeConfig()
	var rows int
	qo := QueryOptions{Config: &cfg, Stream: func(_ []string, r [][]string) error {
		rows += len(r)
		return nil
	}}
	const sql = "SELECT a, b FROM t WHERE a < 8"
	allocs := testing.AllocsPerRun(5, func() {
		rows = 0
		if _, err := eng.QueryWith(context.Background(), sql, qo); err != nil {
			t.Fatal(err)
		}
	})
	if rows < 20_000 {
		t.Fatalf("streamed %d rows, want about 21 600", rows)
	}
	// Parse, plan and translate cost a few hundred allocations; a
	// per-row allocation alone would add 20 000.
	if allocs > 2000 {
		t.Errorf("%.0f allocations for %d streamed rows, want a per-batch constant (<= 2000)", allocs, rows)
	}
	t.Logf("%.0f allocations for %d streamed rows", allocs, rows)
}

// BenchmarkRenderBatch renders one 20 000-row batch of three int32
// columns, one with NULLs: the shape of a streamed projection.
func BenchmarkRenderBatch(b *testing.B) {
	const n = 20_000
	cols := make([]pqp.Vec, 3)
	for c := range cols {
		cols[c] = pqp.Vec{Type: expr.Int32, Bits: make([]uint64, n)}
		for i := range n {
			cols[c].Bits[i] = uint64(int64(i*7919%1_000_003 - 1000))
		}
	}
	cols[2].Nulls = make([]bool, n)
	for i := 0; i < n; i += 100 {
		cols[2].Nulls[i] = true
	}
	var r batchRenderer
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		renderedRows = r.render(cols)
	}
}

// renderedRows keeps BenchmarkRenderBatch's result alive.
var renderedRows [][]string
