package pqp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/govern"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/parallel"
	"fusedscan/internal/scan"
)

// maxMaterializedRows bounds how many output rows a projection will
// materialize when no LIMIT is given, so SELECT * over a huge table cannot
// exhaust memory. Count is always exact.
const maxMaterializedRows = 100000

// pollEvery is how many per-position iterations pass between context
// checks in the per-position operator loops (filter, aggregate fold, sort
// keys, projection). A power of two so the check is a mask test.
const pollEvery = 1 << 13

// pollCtx returns ctx.Err() every pollEvery-th iteration i (and on i == 0),
// nil otherwise. Operators with per-position loops call it so a cancelled
// query aborts mid-loop instead of running to completion.
func pollCtx(ctx context.Context, i int) error {
	if i&(pollEvery-1) != 0 {
		return nil
	}
	return ctx.Err()
}

// Memory-accounting cost estimates. The accountant (govern.Accountant,
// carried in the query context) is charged per in-flight batch for
// transient position memory (released as the pipeline advances) and
// without release for retained state: sort keys live until the sort
// drains, and projected rows live in the final QueryResult. The estimates
// cover the dominant allocations: position entries are 4 B, sort state
// holds a key value, a null flag and two index/position words, and each
// projected row holds one expr.Value per column plus slice headers.
const (
	bytesPerPosition = 4
	bytesPerSortKey  = 48
	bytesPerRowBase  = 48
	bytesPerRowCell  = 24
)

// positionStream is the internal dataflow contract of operators that emit
// position batches. In count-only mode a producer may omit Sel from its
// batches (Count stays exact); consumers that need positions leave it off.
type positionStream interface {
	Operator
	setCountOnly(bool)
}

// fullScanOp produces every row of a table (a scan with no predicates),
// one batch per chunk window.
type fullScanOp struct {
	tbl       *column.Table
	batchRows int
	countOnly bool

	ctx     context.Context
	cpu     *mach.CPU
	cursor  int
	charger batchCharger
	stats   opStats
}

func newFullScan(tbl *column.Table, batchRows int) *fullScanOp {
	return &fullScanOp{tbl: tbl, batchRows: batchRows}
}

func (op *fullScanOp) Describe() string { return fmt.Sprintf("TableScan(%s, all rows)", op.tbl.Name()) }

func (op *fullScanOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *fullScanOp) setCountOnly(v bool) { op.countOnly = v }

func (op *fullScanOp) Open(ctx context.Context, cpu *mach.CPU) error {
	op.ctx, op.cpu = ctx, cpu
	op.cursor = 0
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	return ctx.Err()
}

func (op *fullScanOp) Next() (Batch, error) {
	defer op.stats.timed()()
	n := op.tbl.Rows()
	if op.cursor >= n {
		return Batch{}, EOS
	}
	if err := op.ctx.Err(); err != nil {
		return Batch{}, err
	}
	begin := op.cursor
	end := begin + op.batchRows
	if end > n {
		end = n
	}
	op.cursor = end
	op.stats.noteScanned(end - begin)
	b := Batch{Base: uint32(begin), Count: end - begin}
	if !op.countOnly {
		if err := op.charger.swap(int64(b.Count) * bytesPerPosition); err != nil {
			return Batch{}, err
		}
		b.Sel = make([]uint32, b.Count)
		for i := range b.Sel {
			b.Sel[i] = uint32(i)
		}
		op.cpu.Scalar(b.Count)
	}
	op.stats.noteOut(b)
	return b, nil
}

func (op *fullScanOp) Close() error {
	op.charger.done()
	return nil
}

// scanOp evaluates a predicate chain with a kernel pass per chunk window,
// on the kernel family Kernels picked (native, fused or scalar
// short-circuit), emitting each chunk's chunk-relative position list as one
// batch — the kernel's position lists feed the pipeline directly, never
// widening into a whole-table position list. With Cores > 1 the chunks
// become morsels produced by parallel workers (each with its own simulated
// CPU when the plan runs against one) and merged in morsel order, so
// downstream operators consume an identical ordered stream.
type scanOp struct {
	tbl       *column.Table
	chain     scan.Chain
	kernels   *Family
	batchRows int
	// stopAfter, when > 0, is the optimizer's LIMIT pushdown hint: stop
	// producing once this many matches have been emitted (rounded up to a
	// batch boundary).
	stopAfter int
	// cores/morselRows/params configure parallel batch production.
	cores      int
	morselRows int
	params     mach.Params
	countOnly  bool
	// estSel is the optimizer's selectivity estimate for the whole chain,
	// used to pre-size per-chunk position lists (0 = no estimate).
	estSel float64

	ctx     context.Context
	cpu     *mach.CPU
	cursor  int
	emitted int
	stream  *parallel.Stream
	perCore []mach.Counters
	charger batchCharger
	// pruner skips chunks the columns' zone maps prove empty (single-core
	// path; the parallel morsel stream does not prune yet). pruned counts
	// the skipped chunks.
	pruner *scan.Pruner
	pruned int64
	// bytes totals the stored value bytes the chain's predicate columns
	// covered across non-pruned windows (OperatorStats.BytesScanned).
	bytes int64
	stats opStats
}

func (op *scanOp) Describe() string { return fmt.Sprintf("%s on %s", op.kernels.Name, op.tbl.Name()) }

func (op *scanOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	st.ChunksPruned = op.pruned
	st.Path = op.kernels.Path
	// scan.Chain.Encoding matches the EncodingPlain/EncodingPacked/
	// EncodingMixed labels.
	st.Encoding = op.chain.Encoding()
	st.BytesScanned = op.bytes
	return st
}

// buildWindow builds the kernel for one window of rows and, given the
// optimizer's selectivity estimate (0 = none), pre-sizes its position list.
func buildWindow(build func(scan.Chain) (scan.Kernel, error), sub scan.Chain, estSel float64) (scan.Kernel, error) {
	kern, err := build(sub)
	if err != nil || estSel <= 0 {
		return kern, err
	}
	if sh, ok := kern.(scan.SizeHinter); ok {
		rows := sub.Rows()
		sh.SetSizeHint(min(int(estSel*float64(rows))+16, rows))
	}
	return kern, nil
}

func (op *scanOp) setCountOnly(v bool) { op.countOnly = v }

func (op *scanOp) Open(ctx context.Context, cpu *mach.CPU) error {
	op.ctx, op.cpu = ctx, cpu
	op.cursor, op.emitted = 0, 0
	op.pruned, op.bytes = 0, 0
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	if op.cores <= 1 {
		// Zone maps are built lazily per column and cached, so the first
		// query over a table pays one stats pass per predicate column and
		// later queries prune for free.
		op.pruner = scan.NewPruner(op.chain, op.batchRows)
	}
	if op.cores > 1 {
		morselRows := op.morselRows
		if morselRows <= 0 {
			morselRows = op.batchRows
		}
		// Workers simulate exactly when the driver does.
		var params *mach.Params
		if cpu != nil {
			params = &op.params
		}
		st, err := parallel.NewStream(ctx, params, op.chain, op.kernels.Build, op.cores, morselRows, !op.countOnly)
		if err != nil {
			return err
		}
		op.stream = st
	}
	return ctx.Err()
}

func (op *scanOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.stopAfter > 0 && op.emitted >= op.stopAfter {
		return Batch{}, EOS
	}
	if err := op.ctx.Err(); err != nil {
		return Batch{}, err
	}
	var b Batch
	if op.stream != nil {
		m, err := op.stream.Next()
		if err == parallel.EOS {
			op.perCore = op.stream.PerCore()
			return Batch{}, EOS
		}
		if err != nil {
			return Batch{}, err
		}
		op.stats.noteScanned(m.Rows)
		op.bytes += op.chain.Slice(m.Begin, m.Begin+m.Rows).ScanBytes()
		b = Batch{Base: uint32(m.Begin), Sel: m.Res.Positions, Count: m.Res.Count}
	} else {
		n := op.chain.Rows()
		for {
			if op.cursor >= n {
				return Batch{}, EOS
			}
			begin := op.cursor
			end := begin + op.batchRows
			if end > n {
				end = n
			}
			op.cursor = end
			if op.pruner.Prune(begin, end) {
				// Zone maps prove this chunk empty: skip it without touching
				// its bytes. Pruned rows do not count as scanned.
				op.pruned++
				continue
			}
			op.stats.noteScanned(end - begin)
			sub := op.chain.Slice(begin, end)
			op.bytes += sub.ScanBytes()
			estSel := op.estSel
			if op.countOnly {
				estSel = 0
			}
			kern, err := buildWindow(op.kernels.Build, sub, estSel)
			if err != nil {
				return Batch{}, fmt.Errorf("pqp: scan chunk [%d, %d): %w", begin, end, err)
			}
			res := kern.Run(op.cpu, !op.countOnly)
			b = Batch{Base: uint32(begin), Sel: res.Positions, Count: res.Count}
			break
		}
	}
	if err := op.charger.swap(int64(len(b.Sel)) * bytesPerPosition); err != nil {
		return Batch{}, err
	}
	op.emitted += b.Count
	op.stats.noteOut(b)
	return b, nil
}

func (op *scanOp) Close() error {
	op.charger.done()
	if op.stream != nil {
		// Close cancels morsels not yet started — the LIMIT short-circuit
		// path when the consumer stops pulling early. It must run before
		// PerCore, which waits for the workers to wind down.
		op.stream.Close()
		if op.perCore == nil {
			op.perCore = op.stream.PerCore()
		}
	}
	return nil
}

// perCoreCounters exposes the parallel workers' counters to the plan-level
// report (nil for single-core execution).
func (op *scanOp) perCoreCounters() []mach.Counters { return op.perCore }

// filterOp applies one predicate to incoming position batches — the
// "regular query plan" of Figure 8, where every σ consumes and produces
// position lists. The lists now stay batch-sized and chunk-relative
// instead of materializing per operator; this execution style remains what
// the fused operator replaces.
type filterOp struct {
	input     positionStream
	pred      scan.Pred
	countOnly bool

	ctx     context.Context
	cpu     *mach.CPU
	region  int
	rowIdx  int
	charger batchCharger
	stats   opStats
}

func (op *filterOp) Describe() string {
	return fmt.Sprintf("Filter[%s] (batched position stream)", op.pred)
}

func (op *filterOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *filterOp) child() Operator { return op.input }

// setCountOnly affects only the filter's own output; its input always
// carries full positions (the filter needs them to evaluate).
func (op *filterOp) setCountOnly(v bool) { op.countOnly = v }

func (op *filterOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	op.region = cpu.NewRandomRegion()
	op.rowIdx = 0
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	return nil
}

func (op *filterOp) Next() (Batch, error) {
	defer op.stats.timed()()
	in, err := op.input.Next()
	if err != nil {
		return Batch{}, err
	}
	op.stats.noteIn(in)
	col := op.pred.Col
	size := col.Type().Size()
	needle := op.pred.StoredBits()
	out := Batch{Base: in.Base}
	for i, rel := range in.Sel {
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return Batch{}, err
		}
		op.rowIdx++
		pos := int(in.Base) + int(rel)
		op.cpu.Scalar(2)
		op.cpu.RandomRead(op.region, col.Addr(pos), size)
		match := expr.CompareBits(col.Type(), op.pred.Op, col.Raw(pos), needle)
		op.cpu.Branch(0x900+uint32(op.region), match)
		if match {
			out.Count++
			if !op.countOnly {
				out.Sel = append(out.Sel, rel)
				if in.BuildSel != nil {
					// Preserve join pair alignment through the filter.
					out.BuildSel = append(out.BuildSel, in.BuildSel[i])
				}
			}
			op.cpu.Scalar(1)
		}
	}
	if err := op.charger.swap(int64(len(out.Sel)) * bytesPerPosition); err != nil {
		return Batch{}, err
	}
	op.stats.noteOut(out)
	return out, nil
}

func (op *filterOp) Close() error {
	op.charger.done()
	return op.input.Close()
}

// Group memory-accounting estimates: one group holds its key values,
// aggregate states and map overhead.
const (
	bytesPerGroupBase = 96
	bytesPerGroupCell = 48
)

// sideCol is one side-resolved column an operator reads per input row:
// probe-side (or single-table) columns at Base+Sel[i], a hash join's build
// columns at BuildSel[i]. region is the column's random-access region in
// the machine model, registered when the operator opens.
type sideCol struct {
	col    *column.Column
	build  bool
	region int
}

// pos returns the table position this column is read at for entry i of in.
func (c *sideCol) pos(in *Batch, i int) int {
	if c.build {
		return int(in.BuildSel[i])
	}
	return int(in.Base) + int(in.Sel[i])
}

// gather charges the model for one gathered read of the value at pos:
// address computation plus a real random read.
func (c *sideCol) gather(cpu *mach.CPU, pos int) {
	cpu.Scalar(2)
	cpu.RandomRead(c.region, c.col.Addr(pos), c.col.Type().Size())
}

// groupAgg is one aggregate bound to its column (nil for COUNT(*)).
type groupAgg struct {
	kind lqp.AggKind
	sideCol
}

// aggState folds one aggregate over one group.
type aggState struct {
	sumI   int64
	sumF   float64
	minMax expr.Value
	valid  int64
}

// fold accumulates one non-NULL value of type t into the state.
func (st *aggState) fold(kind lqp.AggKind, t expr.Type, v expr.Value) {
	st.valid++
	switch kind {
	case lqp.AggSum, lqp.AggAvg:
		switch {
		case t.Float():
			st.sumF += v.Float()
		case t.Signed():
			st.sumI += v.Int()
		default:
			st.sumI += int64(v.Uint())
		}
	case lqp.AggMin:
		if st.valid == 1 || v.Compare(expr.Lt, st.minMax) {
			st.minMax = v
		}
	case lqp.AggMax:
		if st.valid == 1 || v.Compare(expr.Gt, st.minMax) {
			st.minMax = v
		}
	}
}

// finish renders the folded state into a result value. count is the
// group's row count (the COUNT(*) value); t is the folded column's type
// (ignored for COUNT(*)). null reports SUM, MIN, MAX or AVG over no
// non-NULL input, which SQL defines as NULL; v is then the result type's
// zero.
func (st aggState) finish(kind lqp.AggKind, t expr.Type, count int64) (v expr.Value, null bool) {
	empty := st.valid == 0
	switch {
	case kind == lqp.AggCount:
		return expr.NewInt(expr.Int64, count), false
	case kind == lqp.AggAvg:
		total := st.sumF
		if !t.Float() {
			total = float64(st.sumI)
		}
		if !empty {
			total /= float64(st.valid)
		}
		return expr.NewFloat(expr.Float64, total), empty
	case kind == lqp.AggSum || empty:
		if t.Float() {
			return expr.NewFloat(expr.Float64, st.sumF), empty
		}
		return expr.NewInt(expr.Int64, st.sumI), empty
	default: // MIN / MAX
		return st.minMax, false
	}
}

// groupState is one group's accumulated fold.
type groupState struct {
	keyVals []expr.Value
	keyNull []bool
	states  []aggState
	count   int64
}

// groupOp is the aggregation sink. It folds its whole input
// batch-at-a-time, gathering each key and aggregate column with real
// random reads, probe- or build-side, so it consumes join pair batches as
// well as plain position streams. With keys it hashes every row's key
// columns into a group and emits the groups as rows in ascending key order
// (NULL keys last), so results are deterministic regardless of hash
// iteration order. With zero keys it is the plain aggregate: one state
// folded directly — no key encoding, map lookup or group charge — emitted
// as a single final batch of aggregate values. NULL values are ignored,
// per SQL; an aggregate over no non-NULL input is NULL.
type groupOp struct {
	input     positionStream
	keys      []sideCol
	keyNames  []string
	items     []groupAgg
	labels    []string
	batchRows int

	ctx     context.Context
	cpu     *mach.CPU
	single  groupState // the zero-key form's one group
	groups  map[string]*groupState
	ordered []*groupState
	total   int
	drained bool
	cursor  int
	rowIdx  int
	stats   opStats
}

func (op *groupOp) Describe() string { return lqp.FormatGroupBy(op.keyNames, op.labels) }

func (op *groupOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	st.Groups = int64(len(op.ordered))
	if !op.drained {
		st.Groups = int64(len(op.groups))
	}
	return st
}

func (op *groupOp) child() Operator { return op.input }

// shape pre-sets the result frame so even an empty input is labelled:
// grouped output is a row result under key-then-aggregate headers, the
// zero-key form one aggregate row.
func (op *groupOp) shape(qr *QueryResult) {
	if len(op.keys) == 0 {
		qr.IsAggregate = true
		qr.AggLabels = op.labels
		return
	}
	qr.Columns = append(append([]string{}, op.keyNames...), op.labels...)
}

func (op *groupOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	// One random region per gathered column: each key, then each
	// non-COUNT item.
	for i := range op.keys {
		op.keys[i].region = cpu.NewRandomRegion()
	}
	for i := range op.items {
		if op.items[i].col != nil {
			op.items[i].region = cpu.NewRandomRegion()
		}
	}
	op.single, op.groups, op.ordered = groupState{}, nil, nil
	if len(op.keys) == 0 {
		op.single.states = make([]aggState, len(op.items))
	} else {
		op.groups = make(map[string]*groupState)
	}
	op.total, op.cursor, op.rowIdx = 0, 0, 0
	op.drained = false
	return nil
}

func (op *groupOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if !op.drained {
		if err := op.drain(); err != nil {
			return Batch{}, err
		}
		op.drained = true
		if len(op.keys) == 0 {
			op.single.count = int64(op.total)
			vals, nulls := op.finish(&op.single, make(Row, 0, len(op.items)), nil)
			out := Batch{Count: op.total, Aggregates: vals, AggNulls: nulls}
			op.stats.noteOut(out)
			return out, nil
		}
		op.sortGroups()
	}
	if op.cursor >= len(op.ordered) {
		return Batch{}, EOS
	}
	begin := op.cursor
	end := min(begin+op.batchRows, len(op.ordered))
	op.cursor = end
	out := Batch{Count: end - begin}
	width := len(op.keys) + len(op.items)
	for _, g := range op.ordered[begin:end] {
		row := append(make(Row, 0, width), g.keyVals...)
		nulls := append(make([]bool, 0, width), g.keyNull...)
		row, nulls = op.finish(g, row, nulls)
		out.Rows = append(out.Rows, row)
		out.RowNulls = append(out.RowNulls, nulls)
	}
	op.stats.noteOut(out)
	return out, nil
}

// drain consumes the whole input, folding every row into its group. In
// count-only mode (zero keys, every item COUNT(*)) batches carry no
// positions and only the total moves.
func (op *groupOp) drain() error {
	var keyBuf []byte
	keyVals := make([]expr.Value, len(op.keys))
	keyNull := make([]bool, len(op.keys))
	for {
		in, err := op.input.Next()
		if err == EOS {
			return nil
		}
		if err != nil {
			return err
		}
		op.stats.noteIn(in)
		op.total += in.Count
		for i := range in.Sel {
			if err := pollCtx(op.ctx, op.rowIdx); err != nil {
				return err
			}
			op.rowIdx++
			g := &op.single
			if len(op.keys) > 0 {
				keyBuf = keyBuf[:0]
				for ki := range op.keys {
					kc := &op.keys[ki]
					pos := kc.pos(&in, i)
					kc.gather(op.cpu, pos)
					if kc.col.Null(pos) {
						// SQL groups all NULL keys together.
						keyVals[ki], keyNull[ki] = expr.Value{}, true
						keyBuf = append(keyBuf, 1, 0, 0, 0, 0, 0, 0, 0, 0)
						continue
					}
					keyVals[ki], keyNull[ki] = kc.col.Value(pos), false
					k := scan.NormKeyBits(kc.col.Type(), kc.col.Raw(pos))
					keyBuf = append(keyBuf, 0,
						byte(k), byte(k>>8), byte(k>>16), byte(k>>24),
						byte(k>>32), byte(k>>40), byte(k>>48), byte(k>>56))
				}
				if g, err = op.group(keyBuf, keyVals, keyNull); err != nil {
					return err
				}
				g.count++
			}
			for ai := range op.items {
				it := &op.items[ai]
				if it.col == nil {
					continue
				}
				pos := it.pos(&in, i)
				it.gather(op.cpu, pos)
				if it.col.Null(pos) {
					continue
				}
				g.states[ai].fold(it.kind, it.col.Type(), it.col.Value(pos))
			}
		}
	}
}

// group returns the state for an encoded key, creating and charging it on
// first sight with copies of the row's key values.
func (op *groupOp) group(key []byte, keyVals []expr.Value, keyNull []bool) (*groupState, error) {
	if g, ok := op.groups[string(key)]; ok {
		return g, nil
	}
	// Group state is retained until the sink drains: charge as it accrues.
	cost := int64(bytesPerGroupBase + (len(op.keys)+len(op.items))*bytesPerGroupCell)
	if err := govern.Charge(op.ctx, cost); err != nil {
		return nil, err
	}
	g := &groupState{
		keyVals: slices.Clone(keyVals),
		keyNull: slices.Clone(keyNull),
		states:  make([]aggState, len(op.items)),
	}
	op.groups[string(key)] = g
	return g, nil
}

// finish appends g's aggregate values to row and their NULL flags to
// nulls. A nil nulls stays nil until the first NULL value.
func (op *groupOp) finish(g *groupState, row Row, nulls []bool) (Row, []bool) {
	for i, it := range op.items {
		var t expr.Type
		if it.col != nil {
			t = it.col.Type()
		}
		v, null := g.states[i].finish(it.kind, t, g.count)
		if null && nulls == nil {
			nulls = make([]bool, len(row), cap(row))
		}
		row = append(row, v)
		if nulls != nil {
			nulls = append(nulls, null)
		}
	}
	return row, nulls
}

// sortGroups orders the groups ascending by key values, NULL keys last —
// the deterministic output order the regression suite relies on.
func (op *groupOp) sortGroups() {
	op.ordered = make([]*groupState, 0, len(op.groups))
	for _, g := range op.groups {
		op.ordered = append(op.ordered, g)
	}
	sort.SliceStable(op.ordered, func(a, b int) bool {
		ga, gb := op.ordered[a], op.ordered[b]
		for i := range op.keys {
			switch {
			case ga.keyNull[i] && gb.keyNull[i]:
				continue
			case ga.keyNull[i]:
				return false
			case gb.keyNull[i]:
				return true
			}
			if ga.keyVals[i].Compare(expr.Lt, gb.keyVals[i]) {
				return true
			}
			if ga.keyVals[i].Compare(expr.Gt, gb.keyVals[i]) {
				return false
			}
		}
		return false
	})
	if n := len(op.ordered); n > 1 {
		logN := 0
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		op.cpu.Scalar(2 * n * logN)
	}
}

func (op *groupOp) Close() error {
	op.groups = nil
	return op.input.Close()
}

// sortOp orders the qualifying positions by one column's values (ORDER
// BY). Sorting is a pipeline barrier: the sink folds its input
// batch-at-a-time into retained sort state (keys fetched with real random
// reads, charged to the memory accountant), sorts once, then streams the
// ordered positions back out in batches. In count-only mode it passes
// batches straight through — counting needs no order.
type sortOp struct {
	input     positionStream
	col       *column.Column
	desc      bool
	batchRows int
	countOnly bool

	ctx     context.Context
	cpu     *mach.CPU
	drained bool
	sorted  []uint32
	cursor  int
	rowIdx  int
	stats   opStats
}

func (op *sortOp) Describe() string {
	dir := "ASC"
	if op.desc {
		dir = "DESC"
	}
	return fmt.Sprintf("Sort[%s %s]", op.col.Name(), dir)
}

func (op *sortOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *sortOp) child() Operator { return op.input }

func (op *sortOp) setCountOnly(v bool) {
	op.countOnly = v
	op.input.setCountOnly(v)
}

func (op *sortOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	op.drained, op.sorted, op.cursor, op.rowIdx = false, nil, 0, 0
	return nil
}

func (op *sortOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.countOnly {
		b, err := op.input.Next()
		if err != nil {
			return Batch{}, err
		}
		op.stats.noteIn(b)
		op.stats.noteOut(b)
		return b, nil
	}
	if !op.drained {
		if err := op.drain(); err != nil {
			return Batch{}, err
		}
		op.drained = true
	}
	if op.cursor >= len(op.sorted) {
		return Batch{}, EOS
	}
	begin := op.cursor
	end := begin + op.batchRows
	if end > len(op.sorted) {
		end = len(op.sorted)
	}
	op.cursor = end
	out := Batch{Base: 0, Sel: op.sorted[begin:end], Count: end - begin}
	op.stats.noteOut(out)
	return out, nil
}

// drain consumes the whole input, fetches sort keys and produces the
// ordered position permutation.
func (op *sortOp) drain() error {
	region := op.cpu.NewRandomRegion()
	size := op.col.Type().Size()
	var positions []uint32
	var keys []expr.Value
	var nulls []bool
	for {
		in, err := op.input.Next()
		if err == EOS {
			break
		}
		if err != nil {
			return err
		}
		op.stats.noteIn(in)
		// Sort state (key, null flag, index and position words) is retained
		// until the sort drains: budget it batch-at-a-time as it accrues.
		if err := govern.Charge(op.ctx, int64(in.Count)*bytesPerSortKey); err != nil {
			return err
		}
		for _, rel := range in.Sel {
			if err := pollCtx(op.ctx, op.rowIdx); err != nil {
				return err
			}
			op.rowIdx++
			pos := int(in.Base) + int(rel)
			op.cpu.Scalar(2)
			op.cpu.RandomRead(region, op.col.Addr(pos), size)
			isNull := op.col.Null(pos)
			positions = append(positions, uint32(pos))
			nulls = append(nulls, isNull)
			if isNull {
				keys = append(keys, expr.Value{})
			} else {
				keys = append(keys, op.col.Value(pos))
			}
		}
	}
	idx := make([]int, len(positions))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		// NULLs sort last, as in most engines' default.
		switch {
		case nulls[i] && nulls[j]:
			return false
		case nulls[i]:
			return false
		case nulls[j]:
			return true
		}
		if op.desc {
			return keys[i].Compare(expr.Gt, keys[j])
		}
		return keys[i].Compare(expr.Lt, keys[j])
	})
	// Charge ~n log2 n comparisons at two instructions each.
	if n := len(idx); n > 1 {
		logN := 0
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		op.cpu.Scalar(2 * n * logN)
	}
	op.sorted = make([]uint32, len(idx))
	for o, i := range idx {
		op.sorted[o] = positions[i]
	}
	return nil
}

func (op *sortOp) Close() error { return op.input.Close() }

// emptyOp is the physical form of an optimizer-pruned plan: an immediately
// exhausted stream.
type emptyOp struct {
	reason string
	stats  opStats
}

func (op *emptyOp) Describe() string { return fmt.Sprintf("EmptyResult(%s)", op.reason) }

func (op *emptyOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *emptyOp) setCountOnly(bool) {}

func (op *emptyOp) Open(context.Context, *mach.CPU) error { return nil }

func (op *emptyOp) Next() (Batch, error) { return Batch{}, EOS }

func (op *emptyOp) Close() error { return nil }

// projectOp materializes the output columns for qualifying positions,
// batch-at-a-time, up to its materialization cap (the LIMIT pushdown hint
// or maxMaterializedRows). Its columns are side-resolved, so it reads a
// join's pair batches as well as single-table position streams. Count
// passes through uncapped so the qualifying total stays exact for the
// batches it consumes.
type projectOp struct {
	input   positionStream
	cols    []sideCol
	names   []string
	capRows int // max rows to materialize (0 = maxMaterializedRows)
	// unbounded lifts the default cap (Options.UnboundedRows): a streaming
	// driver is consuming batches as they are produced, so the full result
	// never accumulates in memory. An explicit LIMIT cap still applies.
	unbounded bool
	// anyNullable is set when some output column holds NULLs; only then
	// do rows carry RowNulls.
	anyNullable bool

	ctx       context.Context
	cpu       *mach.CPU
	remaining int
	rowIdx    int
	stats     opStats
}

func (op *projectOp) Describe() string {
	return fmt.Sprintf("Projection[%s]", strings.Join(op.names, ", "))
}

func (op *projectOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *projectOp) child() Operator { return op.input }

// shape pre-sets the projected column names so empty results keep their
// header.
func (op *projectOp) shape(qr *QueryResult) { qr.Columns = op.names }

// capAt tightens the materialization cap (LIMIT pushdown).
func (op *projectOp) capAt(n int) {
	if op.capRows == 0 || n < op.capRows {
		op.capRows = n
	}
}

func (op *projectOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	for i := range op.cols {
		op.cols[i].region = cpu.NewRandomRegion()
	}
	op.remaining = op.capRows
	if op.remaining <= 0 || (!op.unbounded && op.remaining > maxMaterializedRows) {
		op.remaining = maxMaterializedRows
		if op.unbounded {
			op.remaining = math.MaxInt
		}
	}
	op.rowIdx = 0
	return nil
}

func (op *projectOp) Next() (Batch, error) {
	defer op.stats.timed()()
	in, err := op.input.Next()
	if err != nil {
		return Batch{}, err
	}
	op.stats.noteIn(in)
	out := Batch{Base: in.Base, Count: in.Count}
	rowBytes := int64(bytesPerRowBase + len(op.cols)*bytesPerRowCell)
	for i := range in.Sel {
		if op.remaining <= 0 {
			break
		}
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return Batch{}, err
		}
		op.rowIdx++
		// Projected rows are retained in the final result: charge without
		// release.
		if err := govern.Charge(op.ctx, rowBytes); err != nil {
			return Batch{}, err
		}
		row := make(Row, len(op.cols))
		var nullRow []bool
		if op.anyNullable {
			nullRow = make([]bool, len(op.cols))
		}
		for ci := range op.cols {
			c := &op.cols[ci]
			pos := c.pos(&in, i)
			c.gather(op.cpu, pos)
			row[ci] = c.col.Value(pos)
			if op.anyNullable && c.col.Null(pos) {
				nullRow[ci] = true
			}
		}
		out.Rows = append(out.Rows, row)
		if op.anyNullable {
			out.RowNulls = append(out.RowNulls, nullRow)
		}
		op.remaining--
	}
	op.stats.noteOut(out)
	return out, nil
}

func (op *projectOp) Close() error { return op.input.Close() }

// limitOp caps a row stream at n rows and — the pipelined executor's whole
// point — stops pulling from its child once satisfied, so upstream scan
// chunks (and parallel morsels) beyond the first qualifying ones never
// run. Over an aggregate stream it is a pass-through (one row). Under a
// LIMIT the delivered Count is capped at n.
type limitOp struct {
	input Operator
	n     int
	// overRows is set when the child streams materialized rows (a
	// projection); only then does row counting terminate the stream.
	overRows bool

	emitted int
	stats   opStats
}

func (op *limitOp) Describe() string { return fmt.Sprintf("Limit[%d]", op.n) }

func (op *limitOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *limitOp) child() Operator { return op.input }

// shape delegates to the child so headers survive the wrapper.
func (op *limitOp) shape(qr *QueryResult) {
	if s, ok := op.input.(resultShaper); ok {
		s.shape(qr)
	}
}

func (op *limitOp) Open(ctx context.Context, cpu *mach.CPU) error {
	op.emitted = 0
	return op.input.Open(ctx, cpu)
}

func (op *limitOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.overRows && op.emitted >= op.n {
		// Satisfied: end the stream without pulling the child again — the
		// short-circuit that cancels upstream work.
		return Batch{}, EOS
	}
	b, err := op.input.Next()
	if err != nil {
		return Batch{}, err
	}
	op.stats.noteIn(b)
	if op.overRows {
		take := op.n - op.emitted
		if take < 0 {
			take = 0
		}
		if len(b.Rows) > take {
			b.Rows = b.Rows[:take]
			if len(b.RowNulls) > take {
				b.RowNulls = b.RowNulls[:take]
			}
		}
		op.emitted += len(b.Rows)
		// Under a LIMIT the delivered count is the rows handed out.
		b.Count = len(b.Rows)
	}
	op.stats.noteOut(b)
	return b, nil
}

func (op *limitOp) Close() error { return op.input.Close() }
