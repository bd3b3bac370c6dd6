package main

// Tracing from outside. Spans are recorded by the benchmark, around each
// call into a layer's public functions; nothing inside the program is
// instrumented. In a traced pass an in-process op is executed by walking
// the stages Engine.execute walks — parse, (normalize, skeleton), build,
// optimize, clone/bind, access path, translate, run, render — through the
// layers' exported functions only, and its reply is checked against the
// oracle like any other op.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/pqp"
	"fusedscan/internal/sqlparse"
	"fusedscan/internal/vec"
)

// span is one timed interval at a layer boundary. Spans of one op share its
// query id; Parent is the index of the span that caused this one, -1 for an
// op's root. Times are nanoseconds since the tracer started.
type span struct {
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	query int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a new op's root span and returns its index.
func (t *tracer) root(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.query++
	t.spans = append(t.spans, span{Query: t.query, Name: name, Parent: -1, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Query: t.spans[parent].Query, Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfMedians returns, per span name, the median self time: the span's
// duration minus the part its child spans cover.
func (t *tracer) selfMedians() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byName := map[string][]int64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], self[i])
	}
	out := map[string]float64{}
	for name, v := range byName {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		out[name] = float64(quantile(v, 0.5))
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanExec wraps an executor whose inside the benchmark cannot walk (the
// HTTP clients): one span per call, named after the op's class.
type spanExec struct {
	inner executor
	tr    *tracer
}

func (x spanExec) do(c int, o op, s *stmt) (*reply, error) {
	id := x.tr.root("client." + s.class)
	defer x.tr.end(id)
	return x.inner.do(c, o, s)
}

// skeleton is the walk's stand-in for a prepared statement: what
// Engine.Prepare keeps (slots, parameter count) plus the optimized plan the
// engine's plan cache would hold for the shape.
type skeleton struct {
	slots     []sqlparse.Slot
	numParams int
	plan      *lqp.Plan
}

// opTotals accumulates the counters the walk reads off each op's
// pqp.OperatorStats (self times by operator family, join/group/scan work).
type opTotals struct {
	ops         int
	selfNs      map[string]int64 // by family: scan, join, groupby, sort, project
	joinSelfNs  int64
	probeRows   int64
	bloomChecks int64
	bloomPass   int64
	groupSelfNs int64
	groupRows   int64
	batches     int64
	pruned      int64
	examined    int64 // chunks a scan leaf did read
	scanRowsIn  int64
	resultRows  int64
	indexChosen int
	renderNs    int64
	renderRows  int64
	coldMs      []float64 // first plan per table, with an empty statistics cache
	opNs        int64     // root spans: the whole staged op
	openClose   []int64   // per op: pqp.run minus the root operator's time in Next
}

// walker executes ops stage by stage. It owns what Engine keeps private for
// those stages: an optimizer wired to the engine's index catalog, a JIT
// compiler handle, and the native-path translation options.
type walker struct {
	e       *env
	tr      *tracer
	opt     *lqp.Optimizer
	comp    *jit.Compiler
	opts    pqp.Options
	params  mach.Params
	skel    []*skeleton // by shape index
	totals  opTotals
	calls   int       // ops started, failed ones included: the op index of the next call
	stageNs []float64 // client 0: per op index, staged time of its latest walk
}

func newWalker(e *env, tr *tracer) (*walker, error) {
	w := &walker{e: e, tr: tr, opt: lqp.NewOptimizer(), comp: jit.NewCompiler(), params: mach.Default(),
		stageNs: make([]float64, len(e.ds.ops[0]))}
	w.opt.SetIndexCatalog(e.eng)
	w.opts = pqp.Options{Native: true, UseFused: true, Width: vec.W512, ISA: vec.IsaAVX512, Params: w.params}
	w.totals.selfNs = map[string]int64{}
	// An optimizer's first sight of a table computes column statistics.
	// Plan one statement per table up front, timed as lqp.optimize_cold_ms,
	// so the traced pass sees the warm optimizer the engine has by then.
	seen := map[string]bool{}
	for _, s := range e.ds.stmts {
		key := s.table
		if s.join != nil {
			key += "+" + s.join.table
		}
		if s.class == "ddl" || seen[key] {
			continue
		}
		seen[key] = true
		start := time.Now()
		if _, err := w.plan(s.sql, -1); err != nil {
			return nil, err
		}
		w.totals.coldMs = append(w.totals.coldMs, since(start)*1e3)
	}
	w.skel = make([]*skeleton, len(e.ds.shapes))
	for i, used := range e.ds.preparedShapes() {
		if !used {
			continue
		}
		sel, err := sqlparse.Parse(e.ds.shapes[i])
		if err != nil {
			return nil, err
		}
		shape, slots := sqlparse.Normalize(sel)
		plan, err := w.plan(shape, -1)
		if err != nil {
			return nil, err
		}
		w.skel[i] = &skeleton{slots: slots, numParams: sel.NumParams, plan: plan}
	}
	return w, nil
}

// timed runs f inside a child span of parent (no span when parent < 0).
func (w *walker) timed(name string, parent int, f func() error) error {
	if parent < 0 {
		return f()
	}
	id := w.tr.begin(name, parent)
	err := f()
	w.tr.end(id)
	return err
}

// plan parses, builds and optimizes SQL text — the ad hoc path, and the
// plan-cache miss path for a normalized shape.
func (w *walker) plan(sql string, parent int) (*lqp.Plan, error) {
	var stmt *sqlparse.Statement
	var plan *lqp.Plan
	err := w.timed("sqlparse.parse", parent, func() (err error) {
		stmt, err = sqlparse.ParseStatement(sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	if stmt.Select == nil {
		return nil, fmt.Errorf("walk: not a SELECT: %q", sql)
	}
	if err := w.timed("lqp.build", parent, func() (err error) {
		plan, err = lqp.Build(stmt.Select, w.e.eng)
		return err
	}); err != nil {
		return nil, err
	}
	w.timed("lqp.optimize", parent, func() error { w.opt.Optimize(plan); return nil })
	return plan, nil
}

// bind turns a skeleton into this execution's plan, as Prepared.run does.
func (w *walker) bind(sk *skeleton, slots []sqlparse.Slot, numParams int, args []string, parent int) (*lqp.Plan, error) {
	var plan *lqp.Plan
	if err := w.timed("lqp.clone_bind", parent, func() error {
		bound, err := sqlparse.BindSlots(slots, numParams, args)
		if err != nil {
			return err
		}
		plan = sk.plan.Clone()
		return plan.Bind(bound)
	}); err != nil {
		return nil, err
	}
	w.timed("lqp.access_path", parent, func() error { w.opt.ChooseAccessPath(plan); return nil })
	return plan, nil
}

// do implements executor: one op, stage by stage, under one root span.
func (w *walker) do(c int, o op, s *stmt) (*reply, error) {
	call := w.calls
	w.calls++
	root := w.tr.root("op." + s.class)
	defer w.tr.end(root)
	var plan *lqp.Plan
	var err error
	switch o.mode {
	case modePrepared:
		sk := w.skel[s.shape]
		plan, err = w.bind(sk, sk.slots, sk.numParams, s.args, root)
	case modeCached:
		// cache_thrash cycles twice the cache's capacity, so the engine
		// misses on every one of these; walk the miss path.
		var sel *sqlparse.Select
		if err = w.timed("sqlparse.parse", root, func() (err error) {
			sel, err = sqlparse.Parse(s.sql)
			return err
		}); err != nil {
			break
		}
		var shape string
		var slots []sqlparse.Slot
		w.timed("sqlparse.normalize", root, func() error { shape, slots = sqlparse.Normalize(sel); return nil })
		var skel *lqp.Plan
		if skel, err = w.plan(shape, root); err != nil {
			break
		}
		plan, err = w.bind(&skeleton{plan: skel}, slots, sel.NumParams, nil, root)
	default:
		plan, err = w.plan(s.sql, root)
	}
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(plan.AccessPath, "index(") {
		w.totals.indexChosen++
	}
	var phys *pqp.Plan
	if err := w.timed("pqp.translate", root, func() (err error) {
		phys, err = pqp.Translate(plan, w.comp, w.opts)
		return err
	}); err != nil {
		return nil, err
	}
	// Engine.execute builds a fresh machine model for every query, native
	// path included; the walk does the same and times it on its own.
	var cpu *mach.CPU
	w.timed("engine.cpu_model", root, func() error { cpu = mach.New(w.params); return nil })
	var res pqp.QueryResult
	if err := w.timed("pqp.run", root, func() (err error) {
		res, err = phys.Run(context.Background(), cpu)
		return err
	}); err != nil {
		return nil, err
	}
	runNs := w.tr.spans[len(w.tr.spans)-1].End - w.tr.spans[len(w.tr.spans)-1].Start
	got := &reply{count: res.Count}
	render := w.tr.begin("engine.render", root)
	if res.IsAggregate {
		row := make([]string, len(res.Aggregates))
		for i, v := range res.Aggregates {
			row[i] = v.String()
		}
		got.rows = append(got.rows, row)
	}
	for ri, row := range res.Rows {
		r := make([]string, len(row))
		for i, v := range row {
			if res.RowNulls != nil && res.RowNulls[ri][i] {
				r[i] = "NULL"
			} else {
				r[i] = v.String()
			}
		}
		got.rows = append(got.rows, r)
	}
	w.tr.end(render)
	rs := w.tr.spans[render]
	w.totals.renderNs += rs.End - rs.Start
	w.totals.renderRows += int64(len(got.rows))
	stats := phys.OperatorStats()
	w.account(stats, len(got.rows))
	if len(stats) > 0 {
		w.totals.openClose = append(w.totals.openClose, runNs-stats[0].WallNs)
	}
	w.totals.opNs += rs.End - w.tr.spans[root].Start
	if c == 0 && len(w.stageNs) > 0 {
		// Staged time so far: everything under the root up to here.
		w.stageNs[call%len(w.stageNs)] = float64(rs.End - w.tr.spans[root].Start)
	}
	w.totals.ops++
	return got, nil
}

// family files an operator under one of the five self-time shares.
func family(name string) string {
	switch {
	case strings.Contains(name, "Scan"):
		return "scan"
	case strings.HasPrefix(name, "HashJoin"):
		return "join"
	case strings.HasPrefix(name, "GroupBy"), strings.HasPrefix(name, "Aggregate"):
		return "groupby"
	case strings.HasPrefix(name, "Sort"):
		return "sort"
	}
	return "project" // Projection, Limit, EmptyResult
}

// account folds one op's operator counters into the totals. WallNs is
// inclusive of children; an operator's parent is the nearest entry above
// it with a smaller depth (a join's build subtree sits two levels down).
func (w *walker) account(stats []pqp.OperatorStats, resultRows int) {
	t := &w.totals
	self := make([]int64, len(stats))
	for i, s := range stats {
		self[i] += s.WallNs
		for p := i - 1; p >= 0; p-- {
			if stats[p].Depth < s.Depth {
				self[p] -= s.WallNs
				break
			}
		}
	}
	for i, s := range stats {
		if self[i] < 0 {
			self[i] = 0
		}
		f := family(s.Name)
		t.selfNs[f] += self[i]
		t.batches += s.Batches
		switch {
		case f == "join":
			t.joinSelfNs += self[i]
			t.probeRows += s.ProbeRows
			t.bloomChecks += s.BloomChecks
			t.bloomPass += s.BloomPass
		case strings.HasPrefix(s.Name, "GroupBy"):
			t.groupSelfNs += self[i]
			t.groupRows += s.RowsIn
		case f == "scan":
			t.pruned += s.ChunksPruned
			t.examined += (s.RowsIn + 65535) / 65536
			t.scanRowsIn += s.RowsIn
		}
	}
	if resultRows < 1 {
		resultRows = 1
	}
	t.resultRows += int64(resultRows)
}
