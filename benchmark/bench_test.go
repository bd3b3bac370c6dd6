package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const testScale = 0.01

func testConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 0.05, scale: testScale, trace: trace, setups: 1, outDir: t.TempDir()}
}

// Every workload, untraced and traced, at 1 % size: each run emits exactly
// the catalogue's metrics, each with its unit, and no op fails — in the
// traced run that covers the staged walk, whose replies are checked against
// the oracle like Engine.Query's.
func TestAllWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(testConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if rec.Failed != 0 || !rec.Correct || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %s", w, trace, rec.Failed, rec.Attempted, rec.Note)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, catalogue has %d", w, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || v.Unit == "" {
					t.Errorf("%s trace=%v: metric %s emitted=%v unit=%q, want unit %q", w, trace, d.Name, ok, v.Unit, d.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, v.Value)
				}
			}
			if trace && rec.Metrics["failed_frac"].Value != 0 {
				t.Errorf("%s: failed_frac = %v", w, rec.Metrics["failed_frac"].Value)
			}
		}
	}
}

// The staged walk and Engine.Query answer every in-process op alike, cell
// for cell.
func TestStagedWalkAgreesWithEngine(t *testing.T) {
	for _, w := range workloadNames[:3] {
		e, err := setUp(w, 1, testScale, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		walk, err := newWalker(e, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		engine := e.executor()
		for _, o := range e.ds.ops[0] {
			s := e.ds.stmts[o.stmt]
			want, err := engine.do(0, o, s)
			if err != nil {
				t.Fatalf("%s: engine: %q: %v", w, s.sql, err)
			}
			got, err := walk.do(0, o, s)
			if err != nil {
				t.Fatalf("%s: walk: %q: %v", w, s.sql, err)
			}
			if got.count != want.count || !reflect.DeepEqual(got.rows, want.rows) {
				t.Fatalf("%s: %q: walk answered %d rows (count %d), engine %d rows (count %d)", w, s.sql, len(got.rows), got.count, len(want.rows), want.count)
			}
		}
		if err := e.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// -seed is the only source of randomness, and the engine cannot tell which
// workload it is serving from the names it is handed.
func TestGenerationDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, _ := generate(w, 1, testScale)
		b, _ := generate(w, 1, testScale)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 1 differ", w)
		}
		c, _ := generate(w, 2, testScale)
		if reflect.DeepEqual(a.tables, c.tables) || reflect.DeepEqual(a.stmts, c.stmts) || reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: seeds 1 and 2 share data, statements or op order", w)
		}
		var texts []string
		for _, tb := range a.tables {
			texts = append(texts, tb.name)
		}
		for _, s := range a.stmts {
			texts = append(texts, s.sql)
		}
		texts = append(texts, a.shapes...)
		for _, text := range texts {
			for _, name := range workloadNames {
				if strings.Contains(strings.ToLower(text), name) {
					t.Errorf("%s: %q encodes workload name %s", w, text, name)
				}
			}
		}
	}
	if _, err := generate("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The oracle's join looks partners up in a map; the plain nested loop must
// give the same expected reply.
func TestOracleJoinMatchesNestedLoop(t *testing.T) {
	for _, w := range []string{"join_agg", "serve_mixed"} {
		ds, _ := generate(w, 1, testScale)
		o := newOracle(ds)
		joins := 0
		for _, s := range ds.stmts {
			if s.join == nil {
				continue
			}
			joins++
			if fast, slow := o.eval(s, false), o.eval(s, true); !reflect.DeepEqual(fast, slow) {
				t.Errorf("%q: map join %+v, nested loop %+v", s.sql, fast, slow)
			}
		}
		if joins == 0 {
			t.Errorf("%s has no join statement", w)
		}
	}
}

// Three-valued logic and NULL-skipping aggregates, on a table small enough
// to check by hand.
func TestOracleNullSemantics(t *testing.T) {
	ds := &dataset{tables: []*tableData{{name: "t", cols: []*colData{
		{name: "a", vals: []int32{1, 2, 3, 4}},
		{name: "b", vals: []int32{10, 0, 30, 0}, null: []bool{false, true, false, true}},
	}}}}
	o := newOracle(ds)
	count := func(where ...cmp) int64 {
		return o.eval(&stmt{table: "t", aggs: []aggSpec{{fn: "count"}}, where: where, limit: -1}, false).count
	}
	if n := count(cmp{col: "b", op: "<", v: 100}); n != 2 {
		t.Errorf("b < 100 kept %d rows, want 2 (NULL is unknown)", n)
	}
	if n := count(cmp{col: "b", op: "<>", v: 10}); n != 1 {
		t.Errorf("b <> 10 kept %d rows, want 1", n)
	}
	if n := count(cmp{col: "b", op: "isnull"}); n != 2 {
		t.Errorf("b IS NULL kept %d rows, want 2", n)
	}
	got := o.eval(&stmt{table: "t", aggs: []aggSpec{{fn: "sum", col: "b"}, {fn: "avg", col: "b"}, {fn: "count"}}, limit: -1}, false)
	if want := []float64{40, 20, 4}; !reflect.DeepEqual(got.aggs, want) {
		t.Errorf("SUM/AVG/COUNT over NULLs = %v, want %v", got.aggs, want)
	}
	if !got.matches(&reply{count: 4, rows: [][]string{{"40", "20", "4"}}}) || got.matches(&reply{count: 4, rows: [][]string{{"40", "10", "4"}}}) {
		t.Error("expected.matches does not tell a right aggregate row from a wrong one")
	}
}

// BENCHMARK.json is the catalogue, and the catalogue is within the
// driver's limits.
func TestManifestMatchesCatalogue(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(buf))
	}
	var onDisk manifest
	if err := json.Unmarshal(buf, &onDisk); err != nil {
		t.Fatal(err)
	}
	m := buildManifest()
	if !reflect.DeepEqual(onDisk, m) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(m.PerLayer))
	}
	for _, d := range m.PerLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "queries_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{higher, steady, []float64{95, 96, 94, 95, 95}, "ok"},
		{lower, steady, []float64{70, 130, 90, 140, 100}, "unresolved"},
		{lower, []float64{100, 140, 120, 160, 110}, []float64{50, 51, 49, 50, 50}, "ok"}, // wide base, but every b beats every a
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s < 0.99 || s > 1.01 {
		t.Errorf("spread of 1..10 = %v, want 1 (quartiles 2.75 and 8.25, median 5.5)", s)
	}
}

func TestDriverTraceFlag(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "join_agg", "--trace", "1", "--seed", "7"})
	if want := []string{"--workload", "join_agg", "-trace=1", "--seed", "7"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := joinTraceValue([]string{"-trace", "-seed", "1"}); !reflect.DeepEqual(got, []string{"-trace", "-seed", "1"}) {
		t.Errorf("bare -trace rewritten: %v", got)
	}
}
