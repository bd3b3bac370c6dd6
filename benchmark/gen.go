package main

// Workload generation. Everything a workload feeds the engine — column
// data, literals, statement shapes, op order, class interleaving — is
// derived here from the -seed value and nothing else, as plain Go slices
// and structured statement specs. The engine only ever sees the generated
// inputs; the oracle (oracle.go) only ever sees these structures.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// rng is splitmix64: tiny, fast enough that generating 20M values is not
// the set-up cost, and independent of math/rand's algorithm across Go
// releases, so one seed means one workload forever.
type rng struct{ s uint64 }

func newRng(seed uint64, stream string) *rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ h}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The multiply-shift is biased by at most
// n/2^32, irrelevant for workload data.
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

func (r *rng) uniform(n, domain int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.intn(domain))
	}
	return out
}

// perm returns a shuffled 0..n-1 (unique keys in random order).
func (r *rng) perm(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// nulls marks about one row in every `every` NULL.
func (r *rng) nulls(n, every int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = r.intn(every) == 0
	}
	return out
}

func shuffleOps(r *rng, ops []op) {
	for i := len(ops) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// colData is one generated int32 column; null is nil when the column has
// no NULLs.
type colData struct {
	name string
	vals []int32
	null []bool
}

// tableData is one generated table plus the physical options set-up
// applies through TableBuilder.
type tableData struct {
	name    string
	cols    []*colData
	cluster string   // ClusterBy column, "" for insertion order
	pack    []string // columns to bit-pack
	index   []string // columns to index
}

func (t *tableData) rows() int { return len(t.cols[0].vals) }

func (t *tableData) col(name string) *colData {
	for _, c := range t.cols {
		if c.name == name {
			return c
		}
	}
	return nil
}

// cmp is one WHERE term. op is a comparison operator, "between" (v..hi
// inclusive), "isnull" or "notnull". In join statements col is qualified
// ("table.col").
type cmp struct {
	col   string
	op    string
	v, hi int32
}

type aggSpec struct {
	fn  string // count, sum, min, max, avg
	col string // empty for COUNT(*)
}

type joinSpec struct {
	table       string // build side
	left, right string // ON <main>.left = <table>.right
}

// How an op reaches the engine.
const (
	modeAdhoc    = iota // Engine.Query / client.Query with literal SQL
	modePrepared        // Prepared.Execute / client.Execute with args
	modeCached          // QueryWith{UsePlanCache:true}, literal SQL
	modeStream          // client.Stream (ndjson)
	modeDDL             // CREATE INDEX then DROP INDEX on stmt.table(stmt.cols[0])
)

// stmt is one distinct statement: a structured spec (what the oracle
// evaluates), its literal SQL (what ad hoc ops send) and its prepared
// shape plus arguments (what prepared ops send).
type stmt struct {
	class string
	hint  string
	table string
	join  *joinSpec
	where []cmp
	aggs  []aggSpec
	group []string
	cols  []string
	order string
	limit int // -1 for none

	sql   string
	shape int // index into dataset.shapes
	args  []string
	want  expected
}

type op struct {
	stmt int
	mode int
}

// dataset is one workload's generated inputs: tables, distinct statements,
// the deduplicated prepared shapes, and one cycle of ops per client. A
// timed pass replays whole cycles, so every pass does identical work.
type dataset struct {
	tables []*tableData
	stmts  []*stmt
	shapes []string
	ops    [][]op
}

func (d *dataset) table(name string) *tableData {
	for _, t := range d.tables {
		if t.name == name {
			return t
		}
	}
	return nil
}

// add renders the statement's SQL forms and appends it, returning its index.
func (d *dataset) add(s *stmt) int {
	s.sql, _ = s.render(true)
	var shape string
	shape, s.args = s.render(false)
	s.shape = -1
	for i, sh := range d.shapes {
		if sh == shape {
			s.shape = i
		}
	}
	if s.shape < 0 {
		s.shape = len(d.shapes)
		d.shapes = append(d.shapes, shape)
	}
	d.stmts = append(d.stmts, s)
	return len(d.stmts) - 1
}

// render produces the SQL text: with literal values inline, or with $n
// placeholders and the values returned as arguments.
func (s *stmt) render(literal bool) (string, []string) {
	var args []string
	val := func(v int32) string {
		if literal {
			return strconv.Itoa(int(v))
		}
		args = append(args, strconv.Itoa(int(v)))
		return "$" + strconv.Itoa(len(args))
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.hint != "" {
		b.WriteString("/*+ " + s.hint + " */ ")
	}
	var items []string
	items = append(items, s.group...)
	items = append(items, s.cols...)
	for _, a := range s.aggs {
		if a.fn == "count" {
			items = append(items, "COUNT(*)")
		} else {
			items = append(items, strings.ToUpper(a.fn)+"("+a.col+")")
		}
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM " + s.table)
	if j := s.join; j != nil {
		fmt.Fprintf(&b, " JOIN %s ON %s.%s = %s.%s", j.table, s.table, j.left, j.table, j.right)
	}
	for i, c := range s.where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		switch c.op {
		case "between":
			fmt.Fprintf(&b, "%s BETWEEN %s AND %s", c.col, val(c.v), val(c.hi))
		case "isnull":
			b.WriteString(c.col + " IS NULL")
		case "notnull":
			b.WriteString(c.col + " IS NOT NULL")
		default:
			fmt.Fprintf(&b, "%s %s %s", c.col, c.op, val(c.v))
		}
	}
	if len(s.group) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(s.group, ", "))
	}
	if s.order != "" {
		b.WriteString(" ORDER BY " + s.order)
	}
	if s.limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(s.limit))
	}
	return b.String(), args
}

func scaled(full int, scale float64, min int) int {
	n := int(float64(full) * scale)
	if n < min {
		n = min
	}
	return n
}

// frac returns the literal L for which "col < L" selects about share of a
// column uniform in [0, domain).
func frac(domain int, share float64) int32 {
	l := int32(float64(domain)*share + 0.5)
	if l < 1 {
		l = 1
	}
	return l
}

// repeat appends each statement index `times` times under one mode.
func repeat(ops []op, stmts []int, mode, times int) []op {
	for t := 0; t < times; t++ {
		for _, s := range stmts {
			ops = append(ops, op{stmt: s, mode: mode})
		}
	}
	return ops
}

var workloadNames = []string{"scan_heavy", "short_queries", "join_agg", "serve_mixed"}

// generate builds one workload from the seed. scale 1 is the benchmark; a
// smaller scale shrinks the tables by that factor and the op cycle by its
// square root (a 1 % table still gets 10 % of the ops), keeping every
// class and mode in the cycle.
func generate(workload string, seed uint64, scale float64) (*dataset, error) {
	var d *dataset
	switch workload {
	case "scan_heavy":
		d = genScanHeavy(seed, scale)
	case "short_queries":
		d = genShortQueries(seed, scale)
	case "join_agg":
		d = genJoinAgg(seed, scale)
	case "serve_mixed":
		d = genServeMixed(seed, scale)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	if every := int(1 / math.Sqrt(scale)); every > 1 {
		for c, ops := range d.ops {
			seen := map[string]int{}
			kept := ops[:0]
			for _, o := range ops {
				key := d.stmts[o.stmt].class + strconv.Itoa(o.mode)
				if seen[key]%every == 0 {
					kept = append(kept, o)
				}
				seen[key]++
			}
			d.ops[c] = kept
		}
	}
	return d, nil
}

// scanDomain is the value range of every scan_heavy column: 2^16 keeps the
// bit-packed twin at 16-bit lanes (half the plain bytes) and is fine enough
// that "col < 1" is the 0.001 % point of the selectivity sweep.
const scanDomain = 1 << 16

// sweepShares is Figure 5's axis: first-predicate selectivity.
var sweepShares = []float64{0.00001, 0.001, 0.01, 0.1, 0.5, 1}

// genScanHeavy: the scan kernel does nearly all the work. One wide table of
// five uniform columns far larger than the core's private cache, plus a
// bit-packed twin of its two predicate columns.
func genScanHeavy(seed uint64, scale float64) *dataset {
	r := newRng(seed, "data")
	rows := scaled(4<<20, scale, 4096)
	names := []string{"a", "b", "c", "d", "e"}
	wide := &tableData{name: "wide"}
	for _, n := range names {
		wide.cols = append(wide.cols, &colData{name: n, vals: r.uniform(rows, scanDomain)})
	}
	twin := &tableData{name: "wide_p", cols: wide.cols[:2], pack: []string{"a", "b"}}
	d := &dataset{tables: []*tableData{wide, twin}}

	q := newRng(seed, "stmts")
	pick := func(k int) []string { // k distinct columns in seeded order
		p := q.perm(len(names))
		out := make([]string, k)
		for i := range out {
			out[i] = names[p[i]]
		}
		return out
	}
	half := frac(scanDomain, 0.5)
	count := []aggSpec{{fn: "count"}}
	var all []int
	// sel_sweep: two predicates, first-predicate selectivity swept, second 50 %.
	for _, share := range sweepShares {
		for v := 0; v < 2; v++ {
			c := pick(2)
			all = append(all, d.add(&stmt{class: "sel_sweep", table: "wide", aggs: count, limit: -1,
				where: []cmp{{col: c[0], op: "<", v: frac(scanDomain, share)}, {col: c[1], op: "<", v: half}}}))
		}
	}
	// pred_sweep: 2..5 predicates, first 1 %, each further one 50 % of the rest.
	for k := 2; k <= 5; k++ {
		for v := 0; v < 3; v++ {
			c := pick(k)
			w := []cmp{{col: c[0], op: "<", v: frac(scanDomain, 0.01)}}
			for _, n := range c[1:] {
				w = append(w, cmp{col: n, op: "<", v: half})
			}
			all = append(all, d.add(&stmt{class: "pred_sweep", table: "wide", aggs: count, limit: -1, where: w}))
		}
	}
	// packed: the sel_sweep statements on the bit-packed twin.
	for _, share := range sweepShares {
		for _, c := range [][2]string{{"a", "b"}, {"b", "a"}} {
			all = append(all, d.add(&stmt{class: "packed", table: "wide_p", aggs: count, limit: -1,
				where: []cmp{{col: c[0], op: "<", v: frac(scanDomain, share)}, {col: c[1], op: "<", v: half}}}))
		}
	}
	// agg_positions: the kernel must hand positions to an aggregate. 0.5 %
	// of the rows qualify: at the 10 % the issue sketched, the aggregate
	// operator (~170 ns/row today) outweighs the scan and the workload stops
	// being scan-dominated.
	for _, fn := range []string{"sum", "avg", "min", "max"} {
		for v := 0; v < 3; v++ {
			c := pick(3)
			all = append(all, d.add(&stmt{class: "agg_positions", table: "wide", limit: -1,
				aggs:  []aggSpec{{fn: fn, col: c[2]}},
				where: []cmp{{col: c[0], op: "<", v: frac(scanDomain, 0.01)}, {col: c[1], op: "<", v: half}}}))
		}
	}
	ops := repeat(nil, all, modeAdhoc, 2)
	shuffleOps(newRng(seed, "ops"), ops)
	d.ops = [][]op{ops}
	return d
}

// genShortQueries: parsing, planning, the plan cache, translation, admission
// and result assembly are the whole cost. A one-chunk scan costs about a
// quarter of a millisecond today — as much as everything else in a short
// query but the per-query machine model — so the two classes that read a
// chunk (pruned_scan, limit_sc) run once ad hoc and once prepared per cycle
// while the two that read none (point_idx, contradiction) run twice each:
// the kernel stays under a fifth of the time. The four classes cover 64
// shapes (fits the 256-entry plan cache); cache_thrash cycles 256 more — the
// cache's whole capacity on top of the 64 resident ones, so under LRU none
// survives until its next use — against a table small enough that planning
// dominates. (The issue sketched 512 shapes; 256 already never hit.)
func genShortQueries(seed uint64, scale float64) *dataset {
	r := newRng(seed, "data")
	rows := scaled(1<<20, scale, 4096)
	tsDomain := rows / 64
	events := &tableData{name: "events", cluster: "ts", index: []string{"id"}, cols: []*colData{
		{name: "id", vals: r.perm(rows)},
		{name: "ts", vals: r.uniform(rows, tsDomain)},
		{name: "kind", vals: r.uniform(rows, 8)},
		{name: "val", vals: r.uniform(rows, 1000), null: r.nulls(rows, 100)},
		{name: "w", vals: r.uniform(rows, 100000)},
	}}
	small := &tableData{name: "lookup"}
	smallCols := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for _, n := range smallCols {
		small.cols = append(small.cols, &colData{name: n, vals: r.uniform(512, 100)})
	}
	d := &dataset{tables: []*tableData{events, small}}

	q := newRng(seed, "stmts")
	// A class is 16 shapes (select lists x WHERE forms), each with 4 sets of
	// literals. Aggregates read columns without NULLs: the engine renders an
	// aggregate over no non-NULL input as 0 where SQL (and the oracle) say
	// NULL, so no statement here asks for one.
	agg := func(fn, col string) *stmt { return &stmt{aggs: []aggSpec{{fn: fn, col: col}}} }
	aggLists := []*stmt{agg("count", ""), agg("sum", "w"), agg("min", "w"), agg("max", "w")}
	colLists := []*stmt{
		{cols: []string{"id", "val"}}, {cols: []string{"id", "ts", "kind"}},
		{cols: []string{"val", "w"}}, {cols: []string{"id"}}}
	const valueSets = 4
	classes := map[string][]int{}
	emit := func(class string, limit int, lists []*stmt, forms int, where func(form int) []cmp) {
		for _, list := range lists {
			for form := 0; form < forms; form++ {
				for v := 0; v < valueSets; v++ {
					classes[class] = append(classes[class], d.add(&stmt{class: class, table: "events", limit: limit,
						aggs: list.aggs, cols: list.cols, where: where(form)}))
				}
			}
		}
	}
	at := func(col string, row int) int32 { return events.col(col).vals[row] }
	// point_idx: one row through the secondary index on the shuffled key and
	// nothing else — a residual predicate would make the index scan refine a
	// whole 64 Ki-row window, which is kernel work. Sixteen select lists.
	pointLists := append(append([]*stmt{}, aggLists...),
		agg("sum", "ts"), agg("min", "ts"), agg("max", "ts"), agg("avg", "w"),
		agg("sum", "kind"), agg("min", "kind"), agg("max", "kind"), agg("avg", "ts"))
	pointLists = append(pointLists, colLists...)
	emit("point_idx", -1, pointLists, 1, func(int) []cmp {
		return []cmp{{col: "id", op: "=", v: int32(q.intn(rows))}}
	})
	// pruned_scan: a cluster-key point predicate; zone maps prune all but
	// one chunk. Literals are read off a generated row, so at least that
	// row qualifies.
	emit("pruned_scan", -1, aggLists, 4, func(form int) []cmp {
		row := q.intn(rows)
		for events.col("val").null[row] || at("val", row) >= 500 {
			row = q.intn(rows)
		}
		ts, kind := at("ts", row), at("kind", row)
		switch form {
		case 0:
			return []cmp{{col: "ts", op: "=", v: ts}, {col: "kind", op: "=", v: kind}}
		case 1:
			return []cmp{{col: "ts", op: "=", v: ts}, {col: "kind", op: "<", v: kind + 1}}
		case 2:
			return []cmp{{col: "ts", op: "between", v: ts, hi: ts + 2}, {col: "kind", op: "=", v: kind}}
		}
		return []cmp{{col: "ts", op: "=", v: ts}, {col: "kind", op: "=", v: kind}, {col: "val", op: "<", v: 500}}
	})
	// contradiction: ts below the first chunk's range AND above its top.
	// Ad hoc, the optimizer proves it empty (pure planning); prepared, the
	// skeleton cannot, and the cluster key's zone maps prune every chunk.
	emit("contradiction", -1, append(aggLists[:1:1], colLists[:3]...), 4, func(form int) []cmp {
		lo := int32(1 + q.intn(8))
		w := []cmp{{col: "ts", op: "<", v: lo}, {col: "ts", op: ">", v: int32(tsDomain/2 + q.intn(tsDomain/4))}}
		switch form {
		case 1:
			w = append(w, cmp{col: "kind", op: "=", v: int32(q.intn(8))})
		case 2:
			w = append(w, cmp{col: "val", op: "<", v: 500})
		case 3:
			w = append(w, cmp{col: "w", op: ">", v: 50000})
		}
		return w
	})
	// limit_sc: LIMIT 10 stops the pipeline after the first chunk.
	emit("limit_sc", 10, colLists, 4, func(form int) []cmp {
		kind := int32(q.intn(8))
		switch form {
		case 0:
			return []cmp{{col: "kind", op: "=", v: kind}}
		case 1:
			return []cmp{{col: "kind", op: "=", v: kind}, {col: "val", op: "<", v: 500}}
		case 2:
			return []cmp{{col: "w", op: "<", v: 50000}}
		}
		return []cmp{{col: "kind", op: "<>", v: kind}}
	})
	// cache_thrash: 256 structurally distinct statements (8 select lists x
	// 30 ordered column pairs x 3 operator patterns, first 256).
	thrashAggs := []aggSpec{{fn: "count"}, {fn: "sum", col: "p0"}, {fn: "min", col: "p1"}, {fn: "max", col: "p2"},
		{fn: "sum", col: "p3"}, {fn: "min", col: "p4"}, {fn: "max", col: "p5"}, {fn: "avg", col: "p0"}}
	opPatterns := [][2]string{{"<", "<"}, {"<", ">="}, {">=", "<"}}
	var thrash []int
	for i := 0; len(thrash) < 256; i++ {
		pair := (i / len(thrashAggs)) % 30
		x, y := pair/5, pair%5
		if y >= x {
			y++
		}
		pat := opPatterns[(i/(len(thrashAggs)*30))%len(opPatterns)]
		thrash = append(thrash, d.add(&stmt{class: "cache_thrash", table: "lookup", limit: -1,
			aggs: []aggSpec{thrashAggs[i%len(thrashAggs)]},
			where: []cmp{{col: smallCols[x], op: pat[0], v: int32(20 + q.intn(60))},
				{col: smallCols[y], op: pat[1], v: int32(20 + q.intn(60))}}}))
	}

	// One cycle: every statement half ad hoc and half prepared (shuffled),
	// with the 256 thrash statements spliced in at even spacing in their
	// fixed order, so an LRU of 256 never sees one again in time.
	var ops []op
	for _, class := range []struct {
		name  string
		times int
	}{{"point_idx", 2}, {"contradiction", 2}, {"pruned_scan", 1}, {"limit_sc", 1}} {
		ops = repeat(ops, classes[class.name], modeAdhoc, class.times)
		ops = repeat(ops, classes[class.name], modePrepared, class.times)
	}
	shuffleOps(newRng(seed, "ops"), ops)
	gap := len(ops) / len(thrash)
	mixed := make([]op, 0, len(ops)+len(thrash))
	for i, o := range ops {
		if i%gap == 0 && i/gap < len(thrash) {
			mixed = append(mixed, op{stmt: thrash[i/gap], mode: modeCached})
		}
		mixed = append(mixed, o)
	}
	d.ops = [][]op{mixed}
	return d
}

// genJoinAgg: join, grouping, sort and projection operators and result
// rendering do most of the work; the scan feeds them positions.
func genJoinAgg(seed uint64, scale float64) *dataset {
	r := newRng(seed, "data")
	rows := scaled(256<<10, scale, 4096)
	dimRows := scaled(16<<10, scale, 256)
	fact := &tableData{name: "fact", index: []string{"k"}, cols: []*colData{
		{name: "k", vals: r.perm(rows)},
		{name: "fk", vals: r.uniform(rows, dimRows)},
		{name: "a", vals: r.uniform(rows, 1000)},
		{name: "g", vals: r.uniform(rows, 100)},
		{name: "v", vals: r.uniform(rows, 1000), null: r.nulls(rows, 100)},
	}}
	dim := &tableData{name: "dim", cols: []*colData{
		{name: "dk", vals: r.perm(dimRows)},
		{name: "cat", vals: r.uniform(dimRows, 100)},
		{name: "w", vals: r.uniform(dimRows, 1000)},
	}}
	d := &dataset{tables: []*tableData{fact, dim}}
	q := newRng(seed, "stmts")
	on := &joinSpec{table: "dim", left: "fk", right: "dk"}
	var all []int
	// Four variants per class. Where a class's cost follows its input size
	// the variants keep 100, 75, 50 and 25 % of the fact rows, so latencies
	// spread over a range instead of piling up in a few modes that a median
	// would fall between.
	for v := 0; v < 4; v++ {
		jitter := int32(q.intn(10))
		fn := []string{"sum", "max", "min", "sum"}[v]
		keep := cmp{col: "fact.a", op: ">=", v: int32(250*v) + jitter}
		keepPlain := cmp{col: "a", op: keep.op, v: keep.v}
		// join_bloom: a filtered build side (5 %) is transferred into the
		// probe scan as a Bloom prefilter; grouped aggregate on top.
		all = append(all, d.add(&stmt{class: "join_bloom", table: "fact", join: on, limit: -1,
			group: []string{"dim.cat"}, aggs: []aggSpec{{fn: fn, col: "fact.v"}},
			where: []cmp{{col: "dim.w", op: "<", v: 45 + jitter}, keep}}))
		// join_nofilter: every probe row that passes the scan reaches the
		// hash table.
		all = append(all, d.add(&stmt{class: "join_nofilter", table: "fact", join: on, limit: -1,
			group: []string{"fact.g"}, aggs: []aggSpec{{fn: fn, col: "dim.w"}}, where: []cmp{keep}}))
		// groupby_low / groupby_high: 100 groups and one group per dim key.
		all = append(all, d.add(&stmt{class: "groupby_low", table: "fact", limit: -1,
			group: []string{"g"}, aggs: []aggSpec{{fn: fn, col: "v"}, {fn: "count"}}, where: []cmp{keepPlain}}))
		// (groupby_high aggregates a column without NULLs: some of its small
		// groups would hold only NULLs, and the engine renders an aggregate
		// over no non-NULL input as 0 where SQL and the oracle say NULL.)
		all = append(all, d.add(&stmt{class: "groupby_high", table: "fact", limit: -1,
			group: []string{"fk"}, aggs: []aggSpec{{fn: fn, col: "a"}}, where: []cmp{keepPlain}}))
		// sort_limit: ORDER BY a unique column (no ties to break) over ~1 %.
		all = append(all, d.add(&stmt{class: "sort_limit", table: "fact", limit: 10,
			cols: []string{"k", "v"}, order: "k", where: []cmp{{col: "a", op: "<", v: 8 + jitter/2}}}))
		// project_100k: materialise up to just under the 100 000-row
		// projection cap.
		all = append(all, d.add(&stmt{class: "project_100k", table: "fact", limit: -1,
			cols:  []string{"k", "fk", "g", "v"},
			where: []cmp{{col: "a", op: "<", v: int32(float64((94000+200*int(jitter))*(4-v)/4) / float64(rows) * 1000)}}}))
		// idx_range_1pct: forced index range probe at 1 % plus a residual.
		all = append(all, d.add(&stmt{class: "idx_range_1pct", table: "fact", limit: -1, hint: "INDEX(fact k)",
			aggs:  []aggSpec{{fn: []string{"count", "sum"}[v%2], col: []string{"", "v"}[v%2]}},
			where: []cmp{{col: "k", op: "<", v: int32(rows/100) + jitter}, {col: "a", op: "<", v: 500}}}))
	}
	ops := repeat(nil, all, modeAdhoc, 1)
	shuffleOps(newRng(seed, "ops"), ops)
	d.ops = [][]op{ops}
	return d
}

// serveClients is the closed-loop connection count of serve_mixed: one per
// core of the 2-core box, sharing it with the server they drive.
const serveClients = 2

// genServeMixed: HTTP decode/encode, streaming, sessions, admission and
// durability carry weight only here. Per client and cycle of 200 ops: 100
// prepared point/pruned lookups, 60 ad hoc scans, 34 streamed projections,
// 4 join/GROUP BY, 2 DDL pairs. (The issue sketched 4 % joins; with the
// slowest 5 % of ops then made of exactly the joins and the DDL, query_p95_ms
// sat on the cliff between streams and joins and jumped between them from
// run to run. At 2 % it reads the streams' upper body.)
func genServeMixed(seed uint64, scale float64) *dataset {
	r := newRng(seed, "data")
	rows := scaled(1<<20, scale, 4096)
	dimRows := scaled(4096, scale, 256)
	sideRows := scaled(64<<10, scale, 1024)
	tsDomain := rows / 64
	orders := &tableData{name: "orders", cluster: "ts", index: []string{"id"}, cols: []*colData{
		{name: "id", vals: r.perm(rows)},
		{name: "ts", vals: r.uniform(rows, tsDomain)},
		{name: "a", vals: r.uniform(rows, 1000)},
		{name: "b", vals: r.uniform(rows, 1000), null: r.nulls(rows, 100)},
		{name: "c", vals: r.uniform(rows, 100000)},
		{name: "fk", vals: r.uniform(rows, dimRows)},
	}}
	dim := &tableData{name: "dim", cols: []*colData{
		{name: "dk", vals: r.perm(dimRows)},
		{name: "cat", vals: r.uniform(dimRows, 50)},
		{name: "w", vals: r.uniform(dimRows, 1000)},
	}}
	side := &tableData{name: "side"}
	for c := 0; c < serveClients; c++ {
		side.cols = append(side.cols, &colData{name: "x" + strconv.Itoa(c), vals: r.uniform(sideRows, 1<<20)})
	}
	d := &dataset{tables: []*tableData{orders, dim, side}}
	q := newRng(seed, "stmts")
	var point, scans, streams, joins []int
	for v := 0; v < 32; v++ {
		id, ts := int32(q.intn(rows)), int32(q.intn(tsDomain))
		point = append(point, d.add(&stmt{class: "point", table: "orders", limit: -1,
			aggs: []aggSpec{{fn: "sum", col: "a"}}, where: []cmp{{col: "id", op: "=", v: id}}}))
		point = append(point, d.add(&stmt{class: "point", table: "orders", limit: -1,
			aggs: []aggSpec{{fn: "count"}}, where: []cmp{{col: "ts", op: "=", v: ts}, {col: "a", op: "<", v: 500}}}))
		a, c := int32(50+q.intn(400)), int32(10000+q.intn(50000))
		w := []cmp{{col: "a", op: "<", v: a}, {col: "c", op: "<", v: c}}
		if v%2 == 1 {
			w = append(w, cmp{col: "b", op: ">=", v: 100})
		}
		scans = append(scans, d.add(&stmt{class: "scan", table: "orders", limit: -1, where: w,
			aggs: []aggSpec{{fn: []string{"count", "sum"}[v%2], col: []string{"", "b"}[v%2]}}}))
	}
	for v := 0; v < 8; v++ {
		// ~20 K rows streamed as ndjson batches.
		streams = append(streams, d.add(&stmt{class: "stream", table: "orders", limit: -1,
			cols:  []string{"id", "a", "b"},
			where: []cmp{{col: "c", op: "<", v: int32(float64(20000+100*v) / float64(rows) * 100000)}}}))
		joins = append(joins, d.add(&stmt{class: "join", table: "orders", limit: -1,
			join: &joinSpec{table: "dim", left: "fk", right: "dk"}, group: []string{"dim.cat"},
			aggs:  []aggSpec{{fn: "sum", col: "orders.a"}},
			where: []cmp{{col: "dim.w", op: "<", v: int32(80 + 5*v)}}}))
	}
	for c := 0; c < serveClients; c++ {
		ddl := d.add(&stmt{class: "ddl", table: "side", cols: []string{"x" + strconv.Itoa(c)}, limit: -1})
		var ops []op
		ops = repeat(ops, point, modePrepared, 1)
		ops = append(ops, repeat(nil, point, modePrepared, 1)[:36]...)
		ops = repeat(ops, scans, modeAdhoc, 1)
		ops = append(ops, repeat(nil, scans, modeAdhoc, 1)[:28]...)
		ops = repeat(ops, streams, modeStream, 4)
		ops = append(ops, repeat(nil, streams, modeStream, 1)[:2]...)
		ops = repeat(ops, joins[c*len(joins)/serveClients:(c+1)*len(joins)/serveClients], modeAdhoc, 1)
		ops = repeat(ops, []int{ddl}, modeDDL, 2)
		shuffleOps(newRng(seed, "ops"+strconv.Itoa(c)), ops)
		d.ops = append(d.ops, ops)
	}
	return d
}
