// Package pqp implements physical query plans: the LQP translator of
// Figure 9 turns an optimized logical plan into executable operators,
// invoking the JIT compiler for every scan with a conjunction (the
// paper's drop-in replacement for consecutive scans), and the executor
// runs the operator tree against the machine model — or, on the native
// path, against a nil *mach.CPU that charges nothing.
//
// Execution is batch-pipelined (Volcano-with-vectors): operators implement
// Open/Next/Close and exchange Batch values — bounded, chunk-relative
// selection vectors — instead of materializing whole-table position lists
// between operators. The scan kernels' per-chunk results feed the pipeline
// directly, LIMIT stops pulling (cancelling remaining parallel morsels),
// and peak memory is O(in-flight batches x chunk), extending the paper's
// "never materialize intermediates" principle from the fused kernel to the
// whole plan. DriveTo drains the root into a QueryResult, so the public
// engine API is unchanged.
package pqp

import (
	"context"
	"fmt"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
	"fusedscan/internal/vec"
)

// Options configure physical plan generation.
type Options struct {
	// Native selects the native turbo path for predicate chains: native
	// kernels over the typed column bytes, no emulated instructions. It
	// takes precedence over UseFused and is chosen by the engine whenever
	// the caller does not request simulated hardware counters
	// (Config.Simulate == false). The plan then runs with a nil *mach.CPU,
	// whatever CPU Run or RunTo is handed, so no operator builds or
	// charges a machine model.
	Native bool
	// UseFused selects the JIT-generated Fused Table Scan for predicate
	// chains; when false, chains run on the scalar SISD operator (the
	// "regular query plan" of Figure 8).
	UseFused bool
	// Width is the vector register width for fused operators.
	Width vec.Width
	// ISA is the instruction-set dialect for fused operators.
	ISA vec.ISA
	// Cores > 1 lets a table scan — unfiltered, filtered or on the index
	// path — run its zone-map-surviving chunk windows as morsels on that
	// many cores (see internal/parallel) when at least two windows
	// survive, no LIMIT caps the rows it feeds and it has work per window
	// (predicates, or positions to emit);
	// each core simulates its own CPU, built from Params, when the plan
	// runs against one. Downstream operators still consume one ordered
	// stream; under an aggregation sink each window's join probe and fold,
	// and under a projection its join probe, gather and rendering, run
	// natively on the core that scanned the window (DESIGN §9).
	Cores int
	// Params is the machine calibration for parallel workers' CPUs.
	Params mach.Params
	// BatchRows overrides the pipeline batch capacity (default one scan
	// chunk, 1<<16). Tests use small values to exercise batch boundaries.
	BatchRows int
	// UnboundedRows lifts the projection's default materialization cap
	// (LIMIT pushdown still applies). Streaming drivers set it: rows leave
	// through a BatchSink batch-by-batch, so materializing the full result
	// never holds more than one batch in memory.
	UnboundedRows bool
}

// DefaultOptions is the paper's best configuration: AVX-512 at 512 bits.
func DefaultOptions() Options {
	return Options{UseFused: true, Width: vec.W512, ISA: vec.IsaAVX512}
}

func (o Options) batchRows() int {
	if o.BatchRows > 0 {
		return o.BatchRows
	}
	return defaultBatchRows
}

// Row is one materialized output row.
type Row []expr.Value

// QueryResult is the output of executing a physical plan.
type QueryResult struct {
	// Count is the COUNT(*) value for aggregate queries, and the number
	// of qualifying rows otherwise (capped at LIMIT n when one applies —
	// the pipeline stops early, so rows beyond the limit are never
	// counted).
	Count int64
	// Aggregates holds one value per aggregate item when IsAggregate is
	// set (Int64 for integer SUM/COUNT — wrapping on overflow like the
	// C++ operator would — Float64 for float SUM and every AVG, the
	// column's own type for MIN/MAX). AggLabels names them. AggNulls, when
	// non-nil, marks the items that are NULL: SUM, MIN, MAX or AVG over no
	// non-NULL input, whose Aggregates entry is then the type's zero.
	Aggregates  []expr.Value
	AggNulls    []bool
	AggLabels   []string
	IsAggregate bool
	// Columns names the projected columns (empty for aggregate queries).
	Columns []string
	// Rows holds materialized output of a sink-less drive (empty for
	// aggregate queries), capped by LIMIT. RowNulls, when non-nil, marks
	// NULL cells (same shape as Rows).
	Rows     []Row
	RowNulls [][]bool
}

// Operator is one physical operator in the batch pipeline.
//
// Lifecycle: Open prepares the operator (and its children) for a run;
// Next returns the next batch or EOS when the stream is exhausted; Close
// releases resources and cascades to children. Close must be safe to call
// after a failed Open or mid-stream (the LIMIT short-circuit path), and
// cancels any outstanding upstream work (parallel morsels). Execution
// honours ctx: operators check for cancellation at batch boundaries and
// every few thousand rows in per-position loops, returning ctx.Err().
type Operator interface {
	// Describe renders the operator for EXPLAIN output.
	Describe() string
	Open(ctx context.Context, cpu *mach.CPU) error
	Next() (Batch, error)
	Close() error
	// Stats snapshots the operator's runtime counters (EXPLAIN ANALYZE).
	Stats() OperatorStats
}

// resultShaper is implemented by operators that determine the result
// frame (column headers, aggregate labels) so the driver can shape even
// an empty result correctly before any batch flows.
type resultShaper interface {
	shape(*QueryResult)
}

// Plan is an executable physical plan.
type Plan struct {
	Root Operator
	// Programs lists the JIT programs the plan uses (for EXPLAIN and the
	// compile-cost accounting).
	Programs []*jit.Program
	// NativeScans counts scan leaves using the native SWAR path. Such scans
	// fuse the predicate chain like the JIT path but produce no Programs.
	NativeScans int
	// families are the plan's kernel families (see Kernels), consulted by
	// Degraded.
	families []*Family
	// native records Options.Native: the plan runs with no machine model,
	// whatever CPU its caller hands Run or RunTo.
	native bool
}

// buildChilder is implemented by operators with a second (build-side)
// subtree — the hash join. Walks render it under a "Build:" heading before
// the main spine continues through child().
type buildChilder interface {
	buildChild() Operator
}

// Format renders the physical operator tree. A join's build subtree is
// rendered under an indented "Build:" heading before the probe side
// continues the spine — matching the logical plan's rendering.
func (p *Plan) Format() string {
	var sb strings.Builder
	var walk func(op Operator, depth int)
	walk = func(op Operator, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(op.Describe())
		sb.WriteByte('\n')
		if b, ok := op.(buildChilder); ok && b.buildChild() != nil {
			sb.WriteString(strings.Repeat("  ", depth+1))
			sb.WriteString("Build:\n")
			walk(b.buildChild(), depth+2)
		}
		if c, ok := op.(interface{ child() Operator }); ok && c.child() != nil {
			walk(c.child(), depth+1)
		}
	}
	walk(p.Root, 0)
	return sb.String()
}

// Run executes the plan: it drives the batch pipeline and assembles the
// public QueryResult. A native plan ignores cpu and charges no model.
func (p *Plan) Run(ctx context.Context, cpu *mach.CPU) (QueryResult, error) {
	return p.RunTo(ctx, cpu, nil)
}

// RunTo executes the plan streaming row batches into sink (see DriveTo).
func (p *Plan) RunTo(ctx context.Context, cpu *mach.CPU, sink BatchSink) (QueryResult, error) {
	if p.native {
		cpu = nil
	}
	return DriveTo(ctx, p.Root, cpu, sink)
}

// Shape returns the result frame the plan will produce — column headers,
// aggregate labels — without executing anything. Streaming drivers use it
// to emit the header before the first batch arrives.
func (p *Plan) Shape() QueryResult {
	var qr QueryResult
	if s, ok := p.Root.(resultShaper); ok {
		s.shape(&qr)
	}
	return qr
}

// OperatorStats snapshots every operator's runtime counters, root first
// (same pre-order as Format — a join's build subtree precedes its probe
// side). Each entry records its tree depth for indentation.
func (p *Plan) OperatorStats() []OperatorStats {
	var out []OperatorStats
	var walk func(op Operator, depth int)
	walk = func(op Operator, depth int) {
		st := op.Stats()
		st.Depth = depth
		out = append(out, st)
		if b, ok := op.(buildChilder); ok && b.buildChild() != nil {
			// The build subtree sits under the rendered "Build:" heading.
			walk(b.buildChild(), depth+2)
		}
		if c, ok := op.(interface{ child() Operator }); ok && c.child() != nil {
			walk(c.child(), depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	return out
}

// PerCore returns the parallel scan workers' counters after a run with
// Options.Cores > 1 (nil when the plan ran single-core).
func (p *Plan) PerCore() []mach.Counters {
	op := p.Root
	for op != nil {
		if pc, ok := op.(interface{ perCoreCounters() []mach.Counters }); ok {
			return pc.perCoreCounters()
		}
		c, ok := op.(interface{ child() Operator })
		if !ok || c.child() == nil {
			break
		}
		op = c.child()
	}
	return nil
}

// BatchSink receives each batch as it leaves the plan root during a
// streaming drive, with its rows rendered to text (nil for a batch without
// rows; the zero-key aggregate's one row). A batch is only valid for the
// duration of the call, its rendered rows stay valid; a non-nil return
// aborts the drive with that error (after closing the tree, which cancels
// outstanding upstream work).
type BatchSink func(b Batch, rows [][]string) error

// DriveTo is the thin driver at the top of the pipeline: it opens the root,
// drains batches until EOS, concatenates them into a QueryResult and
// closes the tree (which cancels any upstream work still outstanding).
// When sink is non-nil, every batch is handed to the sink as it arrives,
// with its rows rendered, instead of being accumulated in the QueryResult —
// the returned result then carries the exact Count, columns and aggregates
// but no Rows, and peak memory stays O(one batch) no matter how large the
// result set is. A projection renders its windows in their fragments; the
// driver renders grouped rows and the aggregate row. The engine always
// drives with a sink; only a sink-less drive converts the batches' column
// vectors into Rows.
func DriveTo(ctx context.Context, root Operator, cpu *mach.CPU, sink BatchSink) (QueryResult, error) {
	var qr QueryResult
	if s, ok := root.(resultShaper); ok {
		s.shape(&qr)
	}
	for op := root; op != nil; {
		if p, ok := op.(*projectOp); ok {
			p.render = sink != nil
			break
		}
		c, ok := op.(interface{ child() Operator })
		if !ok {
			break
		}
		op = c.child()
	}
	if err := root.Open(ctx, cpu); err != nil {
		root.Close()
		return QueryResult{}, err
	}
	defer root.Close()
	var r batchRenderer
	for {
		b, err := root.Next()
		if err == EOS {
			break
		}
		if err != nil {
			return QueryResult{}, err
		}
		qr.Count += int64(b.Count)
		if b.Aggregates != nil {
			qr.Aggregates, qr.AggNulls = b.Aggregates, b.AggNulls
		}
		if sink == nil {
			qr.appendRows(&b)
			continue
		}
		rows := b.text
		switch {
		case b.Aggregates != nil:
			rows = [][]string{renderAggregates(b.Aggregates, b.AggNulls)}
		case rows == nil:
			rows = r.render(b.Cols)
		}
		if err := sink(b, rows); err != nil {
			return QueryResult{}, err
		}
	}
	return qr, nil
}

// appendRows copies b's column vectors into Rows, one backing array per
// batch. Once any column can hold NULLs, RowNulls covers every row.
func (qr *QueryResult) appendRows(b *Batch) {
	n, w := b.Rows(), len(b.Cols)
	if n == 0 {
		return
	}
	nullable := qr.RowNulls != nil
	for i := range b.Cols {
		nullable = nullable || b.Cols[i].Nulls != nil
	}
	if nullable && qr.RowNulls == nil {
		// The first batch that can hold NULLs: earlier rows had none.
		for range qr.Rows {
			qr.RowNulls = append(qr.RowNulls, make([]bool, w))
		}
	}
	cells := make(Row, n*w)
	var flags []bool
	if nullable {
		flags = make([]bool, n*w)
	}
	for c := range b.Cols {
		v := &b.Cols[c]
		for i := range n {
			cells[i*w+c] = v.Value(i)
			if flags != nil {
				flags[i*w+c] = v.Null(i)
			}
		}
	}
	for i := range n {
		qr.Rows = append(qr.Rows, cells[i*w:(i+1)*w:(i+1)*w])
		if flags != nil {
			qr.RowNulls = append(qr.RowNulls, flags[i*w:(i+1)*w:(i+1)*w])
		}
	}
}

// Translate lowers an optimized logical plan into a physical plan,
// compiling fused operators through the given JIT compiler.
func Translate(lp *lqp.Plan, comp *jit.Compiler, opts Options) (*Plan, error) {
	if !opts.Width.Valid() {
		return nil, fmt.Errorf("pqp: invalid register width %d", int(opts.Width))
	}
	p := &Plan{native: opts.Native}
	root, err := translateNode(lp.Root, lp.Table, comp, opts, p)
	if err != nil {
		return nil, err
	}
	p.Root = root
	return p, nil
}

func translateNode(n lqp.Node, tbl *column.Table, comp *jit.Compiler, opts Options, p *Plan) (Operator, error) {
	switch t := n.(type) {
	case *lqp.Scan:
		return translateScan(t, comp, opts, p)

	case *lqp.EmptyResult:
		return &emptyOp{reason: t.Reason}, nil

	case *lqp.Join:
		return translateJoin(t, tbl, comp, opts, p)

	case *lqp.GroupBy:
		return translateGroupBy(t, tbl, comp, opts, p)

	case *lqp.Projection:
		return translateProjection(t, tbl, comp, opts, p)

	case *lqp.Sort:
		if findJoin(t.Input) != nil {
			// The sort re-emits bare position batches and would drop the
			// join's pair structure (BuildSel).
			return nil, fmt.Errorf("pqp: ORDER BY over a join is not supported")
		}
		src, err := positionalInput(t.Input, "sort", tbl, comp, opts, p)
		if err != nil {
			return nil, err
		}
		col, err := tbl.Column(t.Col)
		if err != nil {
			return nil, err
		}
		return &sortOp{input: src, col: col, desc: t.Desc, batchRows: opts.batchRows()}, nil

	case *lqp.Limit:
		child, err := translateNode(t.Input, tbl, comp, opts, p)
		if err != nil {
			return nil, err
		}
		lim := &limitOp{input: child, n: t.N}
		switch c := child.(type) {
		case *projectOp:
			// LIMIT pushdown: the projection caps itself, and the scan
			// that feeds it, at n rows (see capAt).
			lim.overRows = true
			if t.N > 0 {
				c.capAt(t.N)
			}
		case *groupOp:
			// Grouped output streams materialized rows; the zero-key form
			// emits a single aggregate batch and needs no row counting.
			lim.overRows = len(c.keys) > 0
		}
		return lim, nil

	default:
		return nil, fmt.Errorf("pqp: cannot translate %T", n)
	}
}

// findJoin walks a logical spine (following Child) and returns the first
// Join node, or nil. Operators above a join use it to locate the build
// table for side-resolved column references. The walk stops at a GroupBy:
// a grouped sink re-shapes the stream into plain rows, so nothing above it
// sees pair batches.
func findJoin(n lqp.Node) *lqp.Join {
	for ; n != nil; n = n.Child() {
		switch t := n.(type) {
		case *lqp.Join:
			return t
		case *lqp.GroupBy:
			return nil
		}
	}
	return nil
}

// translateScan lowers a scan leaf to the chunked scan operator: with
// conjuncts on the kernel family Kernels picks, without any as the same
// scan over an empty chain, and on the index path as the scan over the
// candidates' windows with the residual as its chain. A nil comp builds
// fused kernels directly: a join's probe chain is mutated at Open (Bloom
// injection), and an index scan's residual runs over per-window slices,
// so a cached program could never be reused.
func translateScan(s *lqp.Scan, comp *jit.Compiler, opts Options, p *Plan) (*scanOp, error) {
	op := &scanOp{tbl: s.Table, probes: s.Probes, estSel: s.EstSel,
		batchRows: opts.batchRows(), cores: opts.Cores, params: opts.Params}
	if s.Probes == nil && len(s.Preds) == 0 {
		return op, nil
	}
	if s.Probes != nil {
		comp = nil
	}
	// An index scan's residual may be empty.
	var ch scan.Chain
	if len(s.Preds) > 0 {
		var err error
		if ch, err = buildChain(s.Table, s.Preds); err != nil {
			return nil, err
		}
	}
	f, err := p.kernels(ch, comp, opts)
	if err != nil {
		return nil, err
	}
	op.kernels, op.preds, op.chain = f, ch, ch
	return op, nil
}

// translateJoin lowers a Join node: the build side translates against the
// build table (static chains keep the JIT path), the probe side — a scan,
// which runs the transferred Bloom filter as its last step — and the
// residual chains build fused kernels directly, and key/residual
// references resolve per side.
func translateJoin(t *lqp.Join, tbl *column.Table, comp *jit.Compiler, opts Options, p *Plan) (Operator, error) {
	bsrc, err := translateScan(t.Build, comp, opts, p)
	if err != nil {
		return nil, err
	}
	probeScan, err := translateScan(t.Input, nil, opts, p)
	if err != nil {
		return nil, err
	}
	probeKey, err := tbl.Column(t.ProbeKey)
	if err != nil {
		return nil, err
	}
	buildKey, err := t.Build.Table.Column(t.BuildKey)
	if err != nil {
		return nil, err
	}
	residuals := make([]joinResidual, 0, len(t.Residuals))
	for _, r := range t.Residuals {
		pc, err := tbl.Column(r.Probe)
		if err != nil {
			return nil, err
		}
		bc, err := t.Build.Table.Column(r.Build)
		if err != nil {
			return nil, err
		}
		residuals = append(residuals, joinResidual{probeCol: pc, buildCol: bc, op: r.Op})
	}
	rf, _ := Kernels(nil, nil, opts) // without a chain to build, Kernels cannot fail
	p.families = append(p.families, rf)
	// A probe scan with no predicates of its own runs the Bloom step on the
	// residuals' family.
	if probeScan.kernels == nil {
		probeScan.kernels = rf
	}
	label := t.KeyLabel
	for _, r := range t.Residuals {
		label += " AND " + r.Label
	}
	op := &joinOp{
		probe: probeScan, build: bsrc,
		probeKey: probeKey, buildKey: buildKey, keyType: t.KeyType,
		residuals: residuals, transfer: t.Transfer,
		kernBuild: rf.Build, space: tbl.Space(), label: label,
	}
	return op, nil
}

// sides resolves the side-resolved column references of an operator above
// a plan spine: probe references against the driving table, build
// references against the join below.
type sides struct {
	tbl  *column.Table
	join *lqp.Join
	// emptied is set when collapseEmptyJoin proved a side empty: the Join
	// node — and with it the build table — is gone from the plan. No rows
	// will ever reach the operator, so build references resolve to nil
	// columns that are never read.
	emptied bool
}

// sidesOf returns the resolver for an operator whose input is the spine n.
func sidesOf(n lqp.Node, tbl *column.Table) sides {
	s := sides{tbl: tbl, join: findJoin(n)}
	for ; s.join == nil && n != nil; n = n.Child() {
		if _, ok := n.(*lqp.EmptyResult); ok {
			s.emptied = true
		}
	}
	return s
}

func (s sides) col(ref lqp.ColRef) (sideCol, error) {
	switch {
	case !ref.Build:
		c, err := s.tbl.Column(ref.Col)
		return sideCol{col: c}, err
	case s.join != nil:
		c, err := s.join.Build.Table.Column(ref.Col)
		return sideCol{col: c, build: true}, err
	case s.emptied:
		return sideCol{build: true}, nil
	}
	return sideCol{}, fmt.Errorf("pqp: build-side column %q with no join below", ref.Name)
}

// positionalInput translates n and checks that it emits position batches.
func positionalInput(n lqp.Node, what string, tbl *column.Table, comp *jit.Compiler, opts Options, p *Plan) (positionStream, error) {
	child, err := translateNode(n, tbl, comp, opts, p)
	if err != nil {
		return nil, err
	}
	src, ok := child.(positionStream)
	if !ok {
		return nil, fmt.Errorf("pqp: %s over non-positional input %T", what, child)
	}
	return src, nil
}

// translateGroupBy lowers the aggregation sink, resolving key and
// aggregate columns per side. With zero keys and only COUNT(*) items the
// stream below runs count-only.
func translateGroupBy(t *lqp.GroupBy, tbl *column.Table, comp *jit.Compiler, opts Options, p *Plan) (Operator, error) {
	src, err := positionalInput(t.Input, "aggregate", tbl, comp, opts, p)
	if err != nil {
		return nil, err
	}
	s := sidesOf(t.Input, tbl)
	op := &groupOp{
		input: src, batchRows: opts.batchRows(),
		keys: make([]sideCol, len(t.Keys)), keyNames: make([]string, len(t.Keys)),
		items: make([]groupAgg, len(t.Items)), labels: make([]string, len(t.Items)),
	}
	for i, k := range t.Keys {
		if op.keys[i], err = s.col(k); err != nil {
			return nil, err
		}
		op.keyNames[i] = k.Name
	}
	countOnly := len(t.Keys) == 0
	for i, it := range t.Items {
		op.labels[i] = it.Label()
		op.items[i].kind = it.Kind
		if it.Kind == lqp.AggCount {
			continue
		}
		if op.items[i].sideCol, err = s.col(it.Col); err != nil {
			return nil, err
		}
		countOnly = false
	}
	if countOnly {
		// The stream below never needs position vectors, only exact
		// per-batch counts.
		src.setCountOnly(true)
	}
	return op, nil
}

// translateProjection lowers a projection. Every output column is
// side-resolved (lqp.Build expanded SELECT * into its columns).
func translateProjection(t *lqp.Projection, tbl *column.Table, comp *jit.Compiler, opts Options, p *Plan) (Operator, error) {
	src, err := positionalInput(t.Input, "projection", tbl, comp, opts, p)
	if err != nil {
		return nil, err
	}
	s := sidesOf(t.Input, tbl)
	op := &projectOp{input: src, names: t.Columns, unbounded: opts.UnboundedRows}
	if len(t.Refs) != len(t.Columns) {
		return nil, fmt.Errorf("pqp: projection lacks side-resolved column refs")
	}
	op.cols = make([]sideCol, len(t.Refs))
	for i, ref := range t.Refs {
		if op.cols[i], err = s.col(ref); err != nil {
			return nil, err
		}
	}
	for _, c := range op.cols {
		op.anyNullable = op.anyNullable || (c.col != nil && c.col.HasNulls())
	}
	return op, nil
}

// buildChain resolves logical predicates to a scan.Chain over the table's
// columns. Every predicate must be bound: a plan skeleton still awaiting
// $n parameters (see lqp.Plan.Bind) cannot be lowered to kernels.
func buildChain(tbl *column.Table, preds []expr.Predicate) (scan.Chain, error) {
	var ch scan.Chain
	for _, p := range preds {
		if !p.Bound() {
			return nil, fmt.Errorf("pqp: predicate %s has an unbound parameter; bind the plan before translating", p)
		}
		col, err := tbl.Column(p.Column)
		if err != nil {
			return nil, err
		}
		ch = append(ch, scan.Pred{Col: col, Kind: p.Kind, Op: p.Op, Value: p.Value})
	}
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	return ch, nil
}
