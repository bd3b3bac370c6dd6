package main

// The oracle: an independent row-at-a-time evaluator over the generated Go
// slices. It shares no code with the engine — no parser, no plans, no
// kernels, no column structures — and fixes the expected outcome of every
// distinct statement before anything is timed. SQL semantics it implements:
// three-valued logic (a comparison with NULL is unknown and rejects the
// row; IS [NOT] NULL test the marker), aggregates that skip NULL inputs,
// inner equi-joins where a NULL key matches nothing, and GROUP BY through a
// Go map.
//
// The join looks partners up in a map from key to build rows. The literal
// nested loop the issue asked for is 4e9 comparisons per statement at the
// benchmark's sizes; bench_test.go checks the map lookup against that
// nested loop at small scale instead.

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	kindAgg   = iota // one row of aggregates
	kindGroup        // grouped aggregates, row order unspecified
	kindRows         // projected rows, in table (or ORDER BY) order
)

// expected is what a correct reply to one statement looks like.
type expected struct {
	kind   int
	count  int64     // Result.Count: qualifying rows (capped by LIMIT), or groups
	aggs   []float64 // kindAgg: the aggregate row; NaN marks NULL
	nrows  int       // kindGroup / kindRows
	digest uint64    // kindGroup / kindRows
}

// reply is the engine's answer in the form every surface can produce:
// in-process Result, HTTP QueryResponse, or a digested ndjson stream.
type reply struct {
	count  int64
	rows   [][]string
	digest *rowDigest // non-nil when rows were digested as they streamed
}

// rowDigest hashes rendered rows in arrival order.
type rowDigest struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	n int
}

func newRowDigest() *rowDigest { return &rowDigest{h: fnv.New64a()} }

func (d *rowDigest) add(row []string) {
	for _, cell := range row {
		d.h.Write([]byte(cell))
		d.h.Write([]byte{0x1f})
	}
	d.h.Write([]byte{0x1e})
	d.n++
}

func digestRows(rows [][]string, anyOrder bool) (uint64, int) {
	if anyOrder {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = strings.Join(r, "\x1f")
		}
		sort.Strings(keys)
		rows = make([][]string, len(keys))
		for i, k := range keys {
			rows[i] = []string{k}
		}
	}
	d := newRowDigest()
	for _, r := range rows {
		d.add(r)
	}
	return d.h.Sum64(), d.n
}

// matches reports whether a reply is the expected one.
func (want *expected) matches(got *reply) bool {
	if got.count != want.count {
		return false
	}
	switch want.kind {
	case kindAgg:
		if len(got.rows) != 1 || len(got.rows[0]) != len(want.aggs) {
			return false
		}
		for i, w := range want.aggs {
			cell := got.rows[0][i]
			if math.IsNaN(w) {
				if cell != "NULL" {
					return false
				}
				continue
			}
			g, err := strconv.ParseFloat(cell, 64)
			if err != nil || math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				return false
			}
		}
		return true
	case kindGroup:
		d, n := digestRows(got.rows, true)
		return n == want.nrows && d == want.digest
	default:
		if got.digest != nil {
			return got.digest.n == want.nrows && got.digest.h.Sum64() == want.digest
		}
		d, n := digestRows(got.rows, false)
		return n == want.nrows && d == want.digest
	}
}

// oracle evaluates statements over a dataset's generated tables.
type oracle struct {
	tables map[string]*tableData
	mu     sync.Mutex
	keys   map[string]map[int32][]int32 // "table.col" -> key -> rows, for joins
}

// newOracle takes its own view of the generated tables: a table declared
// CLUSTER BY a column is stably sorted on it here, with the oracle's own
// sort, because LIMIT without ORDER BY returns rows in physical order.
func newOracle(d *dataset) *oracle {
	o := &oracle{tables: map[string]*tableData{}, keys: map[string]map[int32][]int32{}}
	for _, t := range d.tables {
		if t.cluster == "" {
			o.tables[t.name] = t
			continue
		}
		key := t.col(t.cluster).vals
		order := make([]int32, t.rows())
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(x, y int) bool { return key[order[x]] < key[order[y]] })
		sorted := &tableData{name: t.name}
		for _, c := range t.cols {
			sc := &colData{name: c.name, vals: make([]int32, len(c.vals))}
			if c.null != nil {
				sc.null = make([]bool, len(c.null))
			}
			for i, src := range order {
				sc.vals[i] = c.vals[src]
				if c.null != nil {
					sc.null[i] = c.null[src]
				}
			}
			sorted.cols = append(sorted.cols, sc)
		}
		o.tables[t.name] = sorted
	}
	return o
}

// ref is a resolved column reference: which side of the join, which column.
type ref struct {
	c     *colData
	build bool
}

func (r ref) at(i, j int) (int32, bool) {
	if r.build {
		i = j
	}
	return r.c.vals[i], r.c.null != nil && r.c.null[i]
}

func (o *oracle) resolve(s *stmt, name string) ref {
	if dot := strings.IndexByte(name, '.'); dot >= 0 {
		t, c := name[:dot], name[dot+1:]
		return ref{c: o.tables[t].col(c), build: s.join != nil && t == s.join.table}
	}
	return ref{c: o.tables[s.table].col(name)}
}

// holds is three-valued: unknown (a NULL operand) is reported as false,
// which is all a WHERE clause distinguishes.
func (c *cmp) holds(v int32, null bool) bool {
	switch c.op {
	case "isnull":
		return null
	case "notnull":
		return !null
	}
	if null {
		return false
	}
	switch c.op {
	case "=":
		return v == c.v
	case "<>":
		return v != c.v
	case "<":
		return v < c.v
	case "<=":
		return v <= c.v
	case ">":
		return v > c.v
	case ">=":
		return v >= c.v
	case "between":
		return v >= c.v && v <= c.hi
	}
	panic("oracle: unknown operator " + c.op)
}

// accum is one aggregate's running state over its non-NULL inputs.
type accum struct {
	n        int64
	sum      int64
	min, max int32
}

func (a *accum) add(v int32) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += int64(v)
}

// value is the aggregate's result; NaN stands for NULL (no non-NULL input).
func (a *accum) value(fn string, rows int64) float64 {
	if fn == "count" {
		return float64(rows)
	}
	if a.n == 0 {
		return math.NaN()
	}
	switch fn {
	case "sum":
		return float64(a.sum)
	case "min":
		return float64(a.min)
	case "max":
		return float64(a.max)
	}
	return float64(a.sum) / float64(a.n)
}

func renderCell(v int32, null bool) string {
	if null {
		return "NULL"
	}
	return strconv.Itoa(int(v))
}

func renderAgg(fn string, v float64) string {
	if math.IsNaN(v) {
		return "NULL"
	}
	if fn == "avg" {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strconv.FormatInt(int64(v), 10)
}

// buildKeys maps each non-NULL key of table.col to its rows, ascending.
func (o *oracle) buildKeys(table, col string) map[int32][]int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	name := table + "." + col
	if m, ok := o.keys[name]; ok {
		return m
	}
	c := o.tables[table].col(col)
	m := make(map[int32][]int32, len(c.vals))
	for j, k := range c.vals {
		if c.null == nil || !c.null[j] {
			m[k] = append(m[k], int32(j))
		}
	}
	o.keys[name] = m
	return m
}

// eval computes the expected reply of one statement. nested replaces the
// join's key map with the plain nested loop (test cross-check only).
func (o *oracle) eval(s *stmt, nested bool) expected {
	main := o.tables[s.table]
	var probe, build []struct {
		c *cmp
		r ref
	}
	for i := range s.where {
		r := o.resolve(s, s.where[i].col)
		e := struct {
			c *cmp
			r ref
		}{&s.where[i], r}
		if r.build {
			build = append(build, e)
		} else {
			probe = append(probe, e)
		}
	}
	aggRefs := make([]ref, len(s.aggs))
	for i, a := range s.aggs {
		if a.fn != "count" {
			aggRefs[i] = o.resolve(s, a.col)
		}
	}
	groupRefs := make([]ref, len(s.group))
	for i, g := range s.group {
		groupRefs[i] = o.resolve(s, g)
	}
	colRefs := make([]ref, len(s.cols))
	for i, c := range s.cols {
		colRefs[i] = o.resolve(s, c)
	}

	type group struct {
		key  []string
		rows int64
		acc  []accum
	}
	groups := map[string]*group{}
	total := &group{acc: make([]accum, len(s.aggs))}
	var out [][]string
	var sortKeys []int32
	var orderRef ref
	if s.order != "" {
		orderRef = o.resolve(s, s.order)
	}
	var qualifying int64

	emit := func(i, j int) {
		qualifying++
		g := total
		if len(groupRefs) > 0 {
			key := make([]string, len(groupRefs))
			for k, r := range groupRefs {
				key[k] = renderCell(r.at(i, j))
			}
			id := strings.Join(key, "\x1f")
			if g = groups[id]; g == nil {
				g = &group{key: key, acc: make([]accum, len(s.aggs))}
				groups[id] = g
			}
		}
		g.rows++
		for k, r := range aggRefs {
			if r.c == nil {
				continue
			}
			if v, null := r.at(i, j); !null {
				g.acc[k].add(v)
			}
		}
		if len(colRefs) > 0 {
			row := make([]string, len(colRefs))
			for k, r := range colRefs {
				row[k] = renderCell(r.at(i, j))
			}
			out = append(out, row)
			if s.order != "" {
				v, _ := orderRef.at(i, j)
				sortKeys = append(sortKeys, v)
			}
		}
	}

	var keyMap map[int32][]int32
	var leftKey, rightKey *colData
	var buildRows int
	if s.join != nil {
		leftKey = main.col(s.join.left)
		rightKey = o.tables[s.join.table].col(s.join.right)
		buildRows = len(rightKey.vals)
		if !nested {
			keyMap = o.buildKeys(s.join.table, s.join.right)
		}
	}
	stopAt := int64(-1)
	if s.limit >= 0 && s.order == "" {
		stopAt = int64(s.limit) // physical order: the first LIMIT qualifying rows
	}
rows:
	for i := 0; i < main.rows(); i++ {
		for _, p := range probe {
			if v, null := p.r.at(i, 0); !p.c.holds(v, null) {
				continue rows
			}
		}
		if s.join == nil {
			emit(i, 0)
			if qualifying == stopAt {
				break
			}
			continue
		}
		if leftKey.null != nil && leftKey.null[i] {
			continue
		}
		match := func(j int) {
			for _, p := range build {
				if v, null := p.r.at(i, j); !p.c.holds(v, null) {
					return
				}
			}
			emit(i, j)
		}
		if nested {
			for j := 0; j < buildRows; j++ {
				if (rightKey.null == nil || !rightKey.null[j]) && rightKey.vals[j] == leftKey.vals[i] {
					match(j)
				}
			}
		} else {
			for _, j := range keyMap[leftKey.vals[i]] {
				match(int(j))
			}
		}
	}

	switch {
	case len(s.group) > 0:
		rows := make([][]string, 0, len(groups))
		for _, g := range groups {
			row := append([]string{}, g.key...)
			for k, a := range s.aggs {
				row = append(row, renderAgg(a.fn, g.acc[k].value(a.fn, g.rows)))
			}
			rows = append(rows, row)
		}
		want := expected{kind: kindGroup, count: int64(len(rows))}
		want.digest, want.nrows = digestRows(rows, true)
		return want
	case len(s.aggs) > 0:
		want := expected{kind: kindAgg, count: qualifying}
		for k, a := range s.aggs {
			want.aggs = append(want.aggs, total.acc[k].value(a.fn, total.rows))
		}
		return want
	}
	if s.order != "" {
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool { return sortKeys[idx[x]] < sortKeys[idx[y]] })
		sorted := make([][]string, len(out))
		for i, src := range idx {
			sorted[i] = out[src]
		}
		out = sorted
	}
	if s.limit >= 0 && len(out) > s.limit {
		out = out[:s.limit]
	}
	want := expected{kind: kindRows, count: qualifying}
	if s.limit >= 0 {
		want.count = int64(len(out))
	}
	want.digest, want.nrows = digestRows(out, false)
	return want
}

// evalAll fills in every statement's expected reply, two statements at a
// time (the box has two cores and the oracle is outside every timed pass).
func (o *oracle) evalAll(stmts []*stmt) {
	var wg sync.WaitGroup
	next := make(chan *stmt)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				if s.class != "ddl" {
					s.want = o.eval(s, false)
				}
			}
		}()
	}
	for _, s := range stmts {
		next <- s
	}
	close(next)
	wg.Wait()
}
