package pqp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/jit"
	"fusedscan/internal/mach"
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
	var cols []Vec
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
		v := Vec{Type: typ, Bits: make([]uint64, rows), Nulls: make([]bool, rows)}
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
	if r.render(nil) != nil || r.render([]Vec{{Type: expr.Int32}}) != nil {
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

// BenchmarkRenderBatch renders one 20 000-row batch of three int32
// columns, one with NULLs: the shape of a streamed projection.
func BenchmarkRenderBatch(b *testing.B) {
	const n = 20_000
	cols := make([]Vec, 3)
	for c := range cols {
		cols[c] = Vec{Type: expr.Int32, Bits: make([]uint64, n)}
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

// BenchmarkProjectionSink runs a four-column projection of 36 % of 256 Ki
// int32 rows, one column with NULLs (1 %), driven with a sink as the
// engine drives it, so each window is gathered and rendered in its
// fragment, on 1 and 2 cores. ns/row is the plan's wall-clock time per
// projected row.
func BenchmarkProjectionSink(b *testing.B) {
	const n = 256 << 10
	rng := rand.New(rand.NewSource(1))
	space := mach.NewAddrSpace()
	tbl := column.NewTable(space, "t")
	for _, name := range []string{"a", "k", "fk", "g", "v"} {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(rng.Intn(1000))
		}
		col := column.FromInt32s(space, name, vals)
		if name == "v" {
			for i := 0; i < n; i += 100 {
				col.SetNull(i)
			}
		}
		tbl.MustAddColumn(col)
	}
	cat := testCatalog{"t": tbl}
	for _, cores := range []int{1, 2} {
		opts := nativeOptions()
		opts.Cores = cores
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			pp, err := Translate(plan2(b, cat, "SELECT k, fk, g, v FROM t WHERE a < 360", true), jit.NewCompiler(), opts)
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			sink := func(_ Batch, r [][]string) error {
				rows += len(r)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := pp.RunTo(context.Background(), nil, sink); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}
