package fusedscan

import (
	"context"
	"fmt"
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
