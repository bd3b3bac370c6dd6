package fusedscan

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// orderCell is one row of a float test column: its rendered value, or
// NULL.
type orderCell struct {
	s    string
	null bool
}

// orderColumn builds table name with an int32 "id" column (the row
// number) and a float column "f" of type typ holding cells, clustered on f
// when cluster is set.
func orderColumn(t *testing.T, eng *Engine, name, typ string, cells []orderCell, cluster bool) {
	t.Helper()
	ids := make([]int32, len(cells))
	vals := make([]string, len(cells))
	var nulls []int
	for i, c := range cells {
		ids[i], vals[i] = int32(i), c.s
		if c.null {
			vals[i] = "0"
			nulls = append(nulls, i)
		}
	}
	tb := eng.CreateTable(name).Int32("id", ids).Column("f", typ, vals).NullsAt("f", nulls)
	if cluster {
		tb.ClusterBy("f")
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
}

// refValue parses a cell at the column's precision.
func refValue(t *testing.T, typ string, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	if typ == "float32" {
		f = float64(float32(f))
	}
	return f
}

// refOrder is the scalar reference order: numbers by value (-0 equal to
// +0), then NaN, then NULL — for DESC the numbers and NaN reverse and NULL
// stays last — ties in row order.
func refOrder(t *testing.T, typ string, cells []orderCell, desc bool) []int {
	rank := func(i int) (int, float64) {
		if cells[i].null {
			return 2, 0
		}
		f := refValue(t, typ, cells[i].s)
		if math.IsNaN(f) {
			return 1, 0
		}
		return 0, f
	}
	ids := make([]int, len(cells))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		ca, fa := rank(ids[a])
		cb, fb := rank(ids[b])
		if ca == 2 || cb == 2 {
			return ca < cb
		}
		if desc {
			ca, fa, cb, fb = cb, fb, ca, fa
		}
		return ca < cb || ca == cb && fa < fb
	})
	return ids
}

// refCount counts the rows with "f op needle" under SQL/IEEE semantics:
// NULL matches nothing, NaN matches only <>.
func refCount(t *testing.T, typ string, cells []orderCell, op string, needle float64) int64 {
	var n int64
	for _, c := range cells {
		if c.null {
			continue
		}
		f := refValue(t, typ, c.s)
		var ok bool
		switch op {
		case "<":
			ok = f < needle
		case "<=":
			ok = f <= needle
		case "=":
			ok = f == needle
		case ">=":
			ok = f >= needle
		case ">":
			ok = f > needle
		case "<>":
			ok = f != needle
		}
		if ok {
			n++
		}
	}
	return n
}

func firstColumn(rows [][]string) string {
	var out []string
	for _, r := range rows {
		out = append(out, r[0])
	}
	return strings.Join(out, " ")
}

func idList(ids []int) string {
	var out []string
	for _, id := range ids {
		out = append(out, strconv.Itoa(id))
	}
	return strings.Join(out, " ")
}

// TestValueOrder checks every place a float column's values are ordered
// or bounded against a scalar reference, under both configurations:
// ORDER BY ASC and DESC, GROUP BY output, the CLUSTER BY physical order,
// and the comparison counts min/max pruning must not change — on a
// column mixing NaN, both zeros, ±Inf, NULL and duplicates, on one whose
// first non-NULL row is NaN, and on one with no value but NaN.
func TestValueOrder(t *testing.T) {
	mixed := []orderCell{
		{s: "3"}, {s: "NaN"}, {s: "-0"}, {s: "1"}, {null: true}, {s: "0"}, {s: "-Inf"},
		{s: "NaN"}, {s: "1"}, {s: "+Inf"}, {s: "-1"}, {null: true}, {s: "-0"}, {s: "3"}, {s: "2.5"},
	}
	nanFirst := []orderCell{{null: true}, {s: "NaN"}, {s: "1"}, {s: "2"}, {s: "3"}, {s: "-0"}, {s: "NaN"}, {s: "0.5"}}
	allNaN := []orderCell{{s: "NaN"}, {null: true}, {s: "NaN"}}
	needles := []string{"-100", "-1", "0", "0.5", "1", "1.5", "2.5", "3", "100"}
	ops := []string{"<", "<=", "=", ">=", ">", "<>"}

	for _, cfg := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"native", NativeConfig()}} {
		for _, typ := range []string{"float64", "float32"} {
			t.Run(cfg.name+"/"+typ, func(t *testing.T) {
				eng := NewEngine()
				if err := eng.SetConfig(cfg.cfg); err != nil {
					t.Fatal(err)
				}
				orderColumn(t, eng, "mixed", typ, mixed, false)
				orderColumn(t, eng, "clustered", typ, mixed, true)
				orderColumn(t, eng, "nanfirst", typ, nanFirst, false)
				orderColumn(t, eng, "allnan", typ, allNaN, false)
				query := func(sql string) *Result {
					t.Helper()
					res, err := eng.Query(sql)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					return res
				}

				for _, desc := range []bool{false, true} {
					sql := "SELECT id, f FROM mixed ORDER BY f"
					if desc {
						sql += " DESC"
					}
					got, want := firstColumn(query(sql).Rows), idList(refOrder(t, typ, mixed, desc))
					if got != want {
						t.Errorf("%s: ids %s, want %s", sql, got, want)
					}
				}

				// CLUSTER BY stores the rows in the ascending order; a scan
				// without ORDER BY returns them as stored.
				if got, want := firstColumn(query("SELECT id FROM clustered").Rows), idList(refOrder(t, typ, mixed, false)); got != want {
					t.Errorf("CLUSTER BY f: physical ids %s, want %s", got, want)
				}

				// GROUP BY: one group per distinct value in the ascending
				// order (-0 and +0 one group, the NaNs one group, NULL
				// last), each with its row count.
				var want []string
				ref := refOrder(t, typ, mixed, false)
				for i := 0; i < len(ref); {
					j := i + 1
					same := func(a, b orderCell) bool {
						if a.null || b.null {
							return a.null == b.null
						}
						fa, fb := refValue(t, typ, a.s), refValue(t, typ, b.s)
						return fa == fb || math.IsNaN(fa) && math.IsNaN(fb)
					}
					for j < len(ref) && same(mixed[ref[i]], mixed[ref[j]]) {
						j++
					}
					key := "NULL"
					if c := mixed[ref[i]]; !c.null {
						key = fmt.Sprint(refValue(t, typ, c.s) + 0)
					}
					want = append(want, fmt.Sprintf("%s:%d", key, j-i))
					i = j
				}
				var got []string
				for _, r := range query("SELECT f, COUNT(*) FROM mixed GROUP BY f").Rows {
					key := r[0]
					if key != "NULL" {
						key = fmt.Sprint(refValue(t, typ, key) + 0) // -0 + 0 is +0
					}
					got = append(got, key+":"+r[1])
				}
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("GROUP BY f: groups %v, want %v", got, want)
				}

				for _, tc := range []struct {
					table string
					cells []orderCell
				}{{"mixed", mixed}, {"nanfirst", nanFirst}, {"allnan", allNaN}} {
					for _, op := range ops {
						for _, needle := range needles {
							sql := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE f %s %s", tc.table, op, needle)
							want := refCount(t, typ, tc.cells, op, refValue(t, typ, needle))
							if got := query(sql).Count; got != want {
								t.Errorf("%s: count %d, want %d", sql, got, want)
							}
						}
					}
				}

				// A column with no comparable value proves = < <= > >=
				// empty at plan time, and leaves <> (which NaN satisfies)
				// to the scan.
				for _, op := range ops {
					sql := "SELECT COUNT(*) FROM allnan WHERE f " + op + " 1"
					ex, err := eng.ExplainQuery(sql)
					if err != nil {
						t.Fatal(err)
					}
					if pruned := strings.Contains(ex.OptimizedPlan, "EmptyResult"); pruned != (op != "<>") {
						t.Errorf("%s: plan\n%s", sql, ex.OptimizedPlan)
					}
				}
			})
		}
	}
}
