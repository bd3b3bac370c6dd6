package pqp

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
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

// pollSpan is pollCtx over the n iterations starting at from: it returns
// ctx.Err() if any of them is a multiple of pollEvery, so a loop that
// handles rows a block at a time checks at the same rows a per-row loop
// would.
func pollSpan(ctx context.Context, from, n int) error {
	if -from&(pollEvery-1) >= n {
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
// widening into a whole-table position list. Open lists the windows the
// zone maps do not prune, once; both execution modes walk that list. With
// Cores > 1, at least two surviving windows and no LIMIT hint, the windows
// become the morsels of a parallel stream (each core with its own
// simulated CPU when the plan runs against one), merged back in window
// order, so downstream operators consume an identical ordered stream and
// the scan reports the same pruning and byte counts on any core count.
type scanOp struct {
	tbl       *column.Table
	chain     scan.Chain
	kernels   *Family
	batchRows int
	// stopAfter, when > 0, is the optimizer's LIMIT pushdown hint: stop
	// producing once this many matches have been emitted (rounded up to a
	// batch boundary).
	stopAfter int
	// cores/params configure parallel batch production.
	cores     int
	params    mach.Params
	countOnly bool
	// estSel is the optimizer's selectivity estimate for the whole chain,
	// used to pre-size per-chunk position lists (0 = no estimate).
	estSel float64

	ctx context.Context
	cpu *mach.CPU
	// windows are the chunks zone-map pruning kept; next indexes the
	// next one to emit.
	windows []parallel.Window
	next    int
	emitted int
	stream  *parallel.Stream
	// ran is how many cores produced the windows (1 + the stream's
	// helpers).
	ran     int
	perCore []mach.Counters
	charger batchCharger
	// pruned counts the chunks the zone maps skipped.
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
	st.Cores = op.ran
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
	op.next, op.emitted = 0, 0
	op.pruned, op.bytes = 0, 0
	op.stream, op.ran, op.perCore = nil, 1, nil
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	// Zone maps are built lazily per column and cached, so the first
	// query over a table pays one stats pass per predicate column and
	// later queries prune for free.
	pruner := scan.NewPruner(op.chain, op.batchRows)
	op.windows = op.windows[:0]
	for begin, n := 0, op.chain.Rows(); begin < n; begin += op.batchRows {
		end := min(begin+op.batchRows, n)
		if pruner.Prune(begin, end) {
			op.pruned++
			continue
		}
		op.windows = append(op.windows, parallel.Window{Begin: begin, End: end})
	}
	// A LIMIT scan usually stops within its first windows, and a single
	// window leaves a helper nothing to do: both stay on this core.
	if op.cores > 1 && len(op.windows) > 1 && op.stopAfter == 0 {
		// Cores simulate exactly when the driver does.
		var params *mach.Params
		if cpu != nil {
			params = &op.params
		}
		estSel := op.sizeHint()
		build := func(sub scan.Chain) (scan.Kernel, error) { return buildWindow(op.kernels.Build, sub, estSel) }
		st, err := parallel.NewStream(ctx, params, op.chain, build, op.cores, op.windows, !op.countOnly)
		if err != nil {
			return err
		}
		op.stream, op.ran = st, 1+st.Helpers()
	}
	return ctx.Err()
}

// sizeHint is the selectivity estimate that pre-sizes position lists (0
// in count-only mode, which builds none).
func (op *scanOp) sizeHint() float64 {
	if op.countOnly {
		return 0
	}
	return op.estSel
}

func (op *scanOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.stopAfter > 0 && op.emitted >= op.stopAfter {
		return Batch{}, EOS
	}
	if err := op.ctx.Err(); err != nil {
		return Batch{}, err
	}
	if op.next == len(op.windows) {
		if op.stream != nil && op.perCore == nil {
			op.perCore = op.stream.PerCore()
		}
		return Batch{}, EOS
	}
	w := op.windows[op.next]
	op.next++
	var sub scan.Chain
	var res scan.Result
	if op.stream != nil {
		m, err := op.stream.Next()
		if err != nil {
			return Batch{}, err
		}
		sub, res = m.Chain, m.Res
	} else {
		sub = op.chain.Slice(w.Begin, w.End)
		kern, err := buildWindow(op.kernels.Build, sub, op.sizeHint())
		if err != nil {
			return Batch{}, fmt.Errorf("pqp: scan chunk [%d, %d): %w", w.Begin, w.End, err)
		}
		res = kern.Run(op.cpu, !op.countOnly)
	}
	op.stats.noteScanned(w.End - w.Begin)
	op.bytes += sub.ScanBytes()
	b := Batch{Base: uint32(w.Begin), Sel: res.Positions, Count: res.Count}
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
		// Close cancels morsels not yet started — the early-exit path when
		// the consumer stops pulling. It must run before PerCore, which
		// waits for the helpers to wind down.
		op.stream.Close()
		if op.perCore == nil {
			op.perCore = op.stream.PerCore()
		}
	}
	return nil
}

// perCoreCounters exposes the parallel scan's simulated per-core counters
// to the plan-level report (nil for single-core or native execution).
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

// Group memory-accounting estimates: one group holds its key words, first
// row, count and aggregate cells, plus its share of the slot array and of
// slice growth slack.
const (
	bytesPerGroupBase = 96
	bytesPerGroupCell = 48
)

// aggBlock is how many entries of a batch the aggregation sink resolves
// and folds at a time. Its scratch (group ids, key and value words) stays
// cache-resident, and its size, not the batch's, bounds that scratch.
const aggBlock = 256

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

// span returns the positions this column is read at for entries
// [lo, lo+n) of in: base + sel[i].
func (c *sideCol) span(in *Batch, lo, n int) (base int, sel []uint32) {
	if c.build {
		return 0, in.BuildSel[lo : lo+n]
	}
	return int(in.Base), in.Sel[lo : lo+n]
}

// load fills dst with the stored bits, zero-extended as Column.Raw returns
// them, of this column at entries [lo, lo+len(dst)) of in. Plain columns
// are read straight from their lanes, one loop per lane width.
func (c *sideCol) load(in *Batch, lo int, dst []uint64) {
	base, sel := c.span(in, lo, len(dst))
	col := c.col
	if col.IsPacked() {
		for i, p := range sel {
			dst[i] = col.Raw(base + int(p))
		}
		return
	}
	d := col.Data()
	switch col.Type().Size() {
	case 1:
		for i, p := range sel {
			dst[i] = uint64(d[base+int(p)])
		}
	case 2:
		for i, p := range sel {
			dst[i] = uint64(binary.LittleEndian.Uint16(d[2*(base+int(p)):]))
		}
	case 4:
		for i, p := range sel {
			dst[i] = uint64(binary.LittleEndian.Uint32(d[4*(base+int(p)):]))
		}
	default:
		for i, p := range sel {
			dst[i] = binary.LittleEndian.Uint64(d[8*(base+int(p)):])
		}
	}
}

// loadNulls sets dst[i] when the column is NULL at entry lo+i of in,
// reading the validity bitmap words directly. The column must have a
// bitmap.
func (c *sideCol) loadNulls(in *Batch, lo int, dst []bool) {
	base, sel := c.span(in, lo, len(dst))
	words, off := c.col.Validity()
	off += base
	for i, p := range sel {
		bit := off + int(p)
		dst[i] = words[bit>>6]&(1<<(bit&63)) == 0
	}
}

// valueBits converts stored bits of type t, in place, to the expr.Value
// Bits encoding: signed integers sign-extended to 64 bits, float32 widened
// to float64. Other types already match it.
func valueBits(t expr.Type, w []uint64) {
	switch {
	case t == expr.Float32:
		for i, r := range w {
			w[i] = math.Float64bits(float64(math.Float32frombits(uint32(r))))
		}
	case t.Signed() && t.Size() < 8:
		sh := uint(64 - 8*t.Size())
		for i, r := range w {
			w[i] = uint64(int64(r<<sh) >> sh)
		}
	}
}

// groupAgg is one aggregate bound to its column (nil for COUNT(*)).
type groupAgg struct {
	kind lqp.AggKind
	sideCol
}

// aggCell is one aggregate's running state in one group. acc holds the
// integer sum (two's complement, wrapping), the float sum's bits, or the
// MIN/MAX value in expr.Value.Bits encoding; n counts the non-NULL values
// folded.
type aggCell struct {
	acc uint64
	n   int64
}

// foldIntSum adds integer values (signed or unsigned: the same wrapping
// addition on value bits) into each entry's group.
func foldIntSum(cells []aggCell, gids []int32, vals []uint64) {
	for i, v := range vals {
		c := &cells[gids[i]]
		c.acc += v
		c.n++
	}
}

// foldFloatSum adds float values into each entry's group, in entry order.
func foldFloatSum(cells []aggCell, gids []int32, vals []uint64) {
	for i, v := range vals {
		c := &cells[gids[i]]
		c.acc = math.Float64bits(math.Float64frombits(c.acc) + math.Float64frombits(v))
		c.n++
	}
}

// extremeMask is the XOR mask that turns MIN or MAX over integers of type
// t into an unsigned "less than": flipping the sign bit orders signed
// values as unsigned ones, and flipping every bit reverses the order.
func extremeMask(t expr.Type, max bool) uint64 {
	var m uint64
	if t.Signed() {
		m = 1 << 63
	}
	if max {
		m = ^m
	}
	return m
}

// foldIntExtreme keeps each group's first value and replaces it by every
// later value that orders strictly before it under mask (see extremeMask).
func foldIntExtreme(cells []aggCell, gids []int32, vals []uint64, mask uint64) {
	for i, v := range vals {
		c := &cells[gids[i]]
		if c.n == 0 || v^mask < c.acc^mask {
			c.acc = v
		}
		c.n++
	}
}

// foldFloatExtreme is foldIntExtreme for floats under expr.Value.Compare
// semantics: a NaN never replaces and is never replaced, and -0 and +0
// keep whichever came first.
func foldFloatExtreme(cells []aggCell, gids []int32, vals []uint64, max bool) {
	for i, v := range vals {
		c := &cells[gids[i]]
		x, cur := math.Float64frombits(v), math.Float64frombits(c.acc)
		if c.n == 0 || (!max && x < cur) || (max && x > cur) {
			c.acc = v
		}
		c.n++
	}
}

// groupRow is a group's first input row: its probe-side position and, over
// a join, its build-side one. The group's key values are rendered from it.
type groupRow struct{ probe, build uint32 }

// groupOp is the aggregation sink. It folds its whole input
// batch-at-a-time, reading each key and aggregate column probe- or
// build-side, so it consumes join pair batches as well as plain position
// streams. Each block of aggBlock entries is first resolved to group ids —
// every row's keys become a stride of uint64 words (scan.NormKeyBits per
// key, plus NULL-flag words when a key column holds NULLs) looked up in the
// keyTable — then each aggregate folds its column into flat per-group
// cells with a loop specialised by the column's type class. With zero keys
// every entry belongs to the one group: the plain aggregate, emitted as a
// single final batch of aggregate values. With keys the groups are emitted
// as rows in ascending key order (NULL keys last, ties in first-seen
// order). NULL values are ignored, per SQL; an aggregate over no non-NULL
// input is NULL. Under the machine model the sink charges one gathered
// read per row for each key and each non-COUNT item, in row order.
type groupOp struct {
	input     positionStream
	keys      []sideCol
	keyNames  []string
	items     []groupAgg
	labels    []string
	batchRows int

	ctx     context.Context
	cpu     *mach.CPU
	acct    *govern.Accountant
	table   keyTable
	first   []groupRow  // per group
	counts  []int64     // rows per group
	cells   [][]aggCell // per item, then per group; nil for COUNT(*) items
	ordered []int32     // group ids in output order, once drained
	// Per-block scratch: group ids, their NULL-dropped copy, key words
	// (stride per entry) and one column's values.
	gids, liveGids []int32
	keyWords, vals []uint64
	total          int
	drained        bool
	cursor         int
	rowIdx         int
	stats          opStats
}

func (op *groupOp) Describe() string { return lqp.FormatGroupBy(op.keyNames, op.labels) }

func (op *groupOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	if len(op.keys) > 0 {
		st.Groups = int64(len(op.counts))
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
	op.ctx, op.cpu, op.acct = ctx, cpu, govern.AccountantFrom(ctx)
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
	op.first, op.counts, op.ordered = nil, nil, nil
	op.cells = make([][]aggCell, len(op.items))
	if len(op.keys) == 0 {
		op.addGroup()
	} else {
		stride := len(op.keys)
		for _, kc := range op.keys {
			if kc.col != nil && kc.col.HasNulls() {
				stride += (len(op.keys) + 63) / 64
				break
			}
		}
		op.table = newKeyTable(stride, 0)
	}
	op.total, op.cursor, op.rowIdx = 0, 0, 0
	op.drained = false
	return nil
}

// addGroup appends a zeroed count and aggregate cells for a new group.
func (op *groupOp) addGroup() {
	op.counts = append(op.counts, 0)
	for i := range op.items {
		if op.items[i].kind != lqp.AggCount {
			op.cells[i] = append(op.cells[i], aggCell{})
		}
	}
}

func (op *groupOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if !op.drained {
		if err := op.drain(); err != nil {
			return Batch{}, err
		}
		op.drained = true
		if len(op.keys) == 0 {
			op.counts[0] = int64(op.total)
			vals := make([]expr.Value, len(op.items))
			var nulls []bool
			for j := range op.items {
				var null bool
				if vals[j], null = op.finishItem(j, 0); null {
					if nulls == nil {
						nulls = make([]bool, len(op.items))
					}
					nulls[j] = true
				}
			}
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
	ids := op.ordered[begin:end]
	n, nk := len(ids), len(op.keys)
	out := Batch{Count: n, Cols: make([]Vec, nk+len(op.items))}
	bits := make([]uint64, n*len(out.Cols))
	// Keys render from each group's first row, read like an input batch.
	first := Batch{Sel: make([]uint32, n), BuildSel: make([]uint32, n)}
	for i, g := range ids {
		first.Sel[i], first.BuildSel[i] = op.first[g].probe, op.first[g].build
	}
	for k := range op.keys {
		kc := &op.keys[k]
		v := Vec{Type: kc.col.Type(), Bits: bits[k*n : (k+1)*n : (k+1)*n]}
		kc.load(&first, 0, v.Bits)
		valueBits(v.Type, v.Bits)
		if kc.col.HasNulls() {
			// SQL groups all NULL keys together.
			v.Nulls = make([]bool, n)
			kc.loadNulls(&first, 0, v.Nulls)
		}
		out.Cols[k] = v
	}
	for j := range op.items {
		c := nk + j
		v := Vec{Type: op.itemType(j), Bits: bits[c*n : (c+1)*n : (c+1)*n]}
		for i, g := range ids {
			val, null := op.finishItem(j, g)
			v.Bits[i] = val.Bits
			if null {
				if v.Nulls == nil {
					v.Nulls = make([]bool, n)
				}
				v.Nulls[i] = true
			}
		}
		out.Cols[c] = v
	}
	op.stats.noteOut(out)
	return out, nil
}

// drain consumes the whole input, folding every entry into its group,
// block by block. In count-only mode (zero keys, every item COUNT(*))
// batches carry no positions and only the total moves.
func (op *groupOp) drain() error {
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
		n := len(in.Sel)
		if err := pollSpan(op.ctx, op.rowIdx, n); err != nil {
			return err
		}
		op.rowIdx += n
		if op.cpu != nil {
			op.replayGathers(&in)
		}
		if n == 0 {
			continue
		}
		if block := min(n, aggBlock); cap(op.gids) < block {
			op.gids, op.liveGids = make([]int32, block), make([]int32, block)
			op.keyWords, op.vals = make([]uint64, block*op.table.stride), make([]uint64, block)
		}
		for lo := 0; lo < n; lo += aggBlock {
			gids := op.gids[:min(aggBlock, n-lo)]
			if len(op.keys) > 0 {
				if err := op.resolve(&in, lo, gids); err != nil {
					return err
				}
			}
			op.fold(&in, lo, gids)
		}
	}
}

// replayGathers charges the machine model for the sink's reads of in: per
// entry, one gathered read for each key, then for each non-COUNT item.
func (op *groupOp) replayGathers(in *Batch) {
	for i := range in.Sel {
		for k := range op.keys {
			kc := &op.keys[k]
			kc.gather(op.cpu, kc.pos(in, i))
		}
		for j := range op.items {
			if it := &op.items[j]; it.col != nil {
				it.gather(op.cpu, it.pos(in, i))
			}
		}
	}
}

// resolve sets gids to the group ids of entries [lo, lo+len(gids)) of in,
// creating groups on first sight — each charged to the memory accountant
// as it is created — and counting rows per group.
func (op *groupOp) resolve(in *Batch, lo int, gids []int32) error {
	n, stride, nk := len(gids), op.table.stride, len(op.keys)
	words := op.keyWords[:n*stride]
	if stride > nk {
		for i := range n {
			clear(words[i*stride+nk : (i+1)*stride])
		}
	}
	raw := op.vals[:n]
	for k := range op.keys {
		kc := &op.keys[k]
		kc.load(in, lo, raw)
		if t := kc.col.Type(); t.Float() {
			for i, r := range raw {
				raw[i] = scan.NormKeyBits(t, r)
			}
		}
		if kc.col.HasNulls() {
			flag, bit := nk+k/64, uint64(1)<<(k%64)
			for i := range raw {
				if kc.col.Null(kc.pos(in, lo+i)) {
					raw[i] = 0
					words[i*stride+flag] |= bit
				}
			}
		}
		for i, r := range raw {
			words[i*stride+k] = r
		}
	}
	cost := int64(bytesPerGroupBase + (nk+len(op.items))*bytesPerGroupCell)
	for i := range gids {
		key := words[i*stride : (i+1)*stride]
		g, slot := op.table.find(key)
		if g < 0 {
			if err := op.acct.Charge(cost); err != nil {
				return err
			}
			g = op.table.insert(key, slot)
			first := groupRow{probe: in.Base + in.Sel[lo+i]}
			if in.BuildSel != nil {
				first.build = in.BuildSel[lo+i]
			}
			op.first = append(op.first, first)
			op.addGroup()
		}
		gids[i] = g
		op.counts[g]++
	}
	return nil
}

// fold folds entries [lo, lo+len(gids)) of in into their groups' cells,
// one aggregate column at a time.
func (op *groupOp) fold(in *Batch, lo int, gids []int32) {
	for j := range op.items {
		it := &op.items[j]
		if it.col == nil {
			continue
		}
		vals, live := op.vals[:len(gids)], gids
		it.load(in, lo, vals)
		if it.col.HasNulls() {
			live = op.liveGids[:0]
			for i, v := range vals {
				if !it.col.Null(it.pos(in, lo+i)) {
					vals[len(live)] = v
					live = append(live, gids[i])
				}
			}
			vals = vals[:len(live)]
		}
		t := it.col.Type()
		valueBits(t, vals)
		cells := op.cells[j]
		switch sum := it.kind == lqp.AggSum || it.kind == lqp.AggAvg; {
		case sum && t.Float():
			foldFloatSum(cells, live, vals)
		case sum:
			foldIntSum(cells, live, vals)
		case t.Float():
			foldFloatExtreme(cells, live, vals, it.kind == lqp.AggMax)
		default:
			foldIntExtreme(cells, live, vals, extremeMask(t, it.kind == lqp.AggMax))
		}
	}
}

// finishItem returns aggregate j's value in group g and whether it is
// NULL. COUNT(*) is the group's row count. A SUM, MIN, MAX or AVG over no
// non-NULL input is NULL, which SQL defines, and its value the result
// type's zero.
func (op *groupOp) finishItem(j int, g int32) (expr.Value, bool) {
	it := &op.items[j]
	switch {
	case it.kind == lqp.AggCount:
		return expr.NewInt(expr.Int64, op.counts[g]), false
	case it.col == nil: // a join proved empty: nothing was folded
		return finishCell(it.kind, 0, op.cells[j][g])
	}
	return finishCell(it.kind, it.col.Type(), op.cells[j][g])
}

// itemType is aggregate j's result type, the one finishItem gives its
// non-NULL values: Float64 for every AVG and float SUM, Int64 for COUNT and
// integer SUM, the column's own type for MIN/MAX.
func (op *groupOp) itemType(j int) expr.Type {
	it := &op.items[j]
	switch {
	case it.kind == lqp.AggAvg:
		return expr.Float64
	case it.kind == lqp.AggCount || it.col == nil:
		return expr.Int64
	case it.kind == lqp.AggSum && it.col.Type().Float():
		return expr.Float64
	case it.kind == lqp.AggSum:
		return expr.Int64
	}
	return it.col.Type()
}

// finishCell renders a SUM, MIN, MAX or AVG cell over values of type t.
func finishCell(kind lqp.AggKind, t expr.Type, c aggCell) (v expr.Value, null bool) {
	empty := c.n == 0
	switch {
	case kind == lqp.AggAvg:
		total := float64(int64(c.acc))
		if t.Float() {
			total = math.Float64frombits(c.acc)
		}
		if !empty {
			total /= float64(c.n)
		}
		return expr.NewFloat(expr.Float64, total), empty
	case kind == lqp.AggSum || empty:
		if t.Float() {
			return expr.NewFloat(expr.Float64, math.Float64frombits(c.acc)), empty
		}
		return expr.NewInt(expr.Int64, int64(c.acc)), empty
	default: // MIN / MAX
		return expr.Value{Type: t, Bits: c.acc}, false
	}
}

// sortGroups orders the groups ascending by key, key by key, in the value
// order (expr.OrderKey), NULL last. Ties keep first-seen order, so the
// output is one deterministic total order — the one the regression suite
// relies on.
func (op *groupOp) sortGroups() {
	n, nk, stride := len(op.counts), len(op.keys), op.table.stride
	// Sort words per group, most significant first: per key, a NULL flag
	// (when the keys hold NULLs) then its order key.
	per := nk
	if stride > nk {
		per = 2 * nk
	}
	sw := make([]uint64, 0, n*per)
	for g := range n {
		key := op.table.words[g*stride:][:stride]
		for k := range op.keys {
			if stride > nk {
				sw = append(sw, key[nk+k/64]>>(k%64)&1)
			}
			sw = append(sw, expr.OrderKey(op.keys[k].col.Type(), key[k]))
		}
	}
	op.ordered = expr.RadixOrder(sw, per, n)
	chargeSort(op.cpu, n)
}

// chargeSort charges the model for sorting n entries: ~n log2 n
// comparisons at two instructions each.
func chargeSort(cpu *mach.CPU, n int) {
	if n > 1 {
		logN := 0
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		cpu.Scalar(2 * n * logN)
	}
}

// Close releases the group table, cells and scratch; counts and ordered
// stay for Stats.
func (op *groupOp) Close() error {
	op.table, op.first, op.cells = keyTable{}, nil, nil
	op.gids, op.liveGids, op.keyWords, op.vals = nil, nil, nil, nil
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
// ordered position permutation: rows in the value order, reversed for
// DESC, NULLs last in both directions, ties in input order
// (Column.AppendSortWords).
func (op *sortOp) drain() error {
	region := op.cpu.NewRandomRegion()
	size := op.col.Type().Size()
	var positions []uint32
	var words []uint64
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
			positions = append(positions, uint32(pos))
			words = op.col.AppendSortWords(words, pos, op.desc)
		}
	}
	ids := expr.RadixOrder(words, op.col.SortWords(), len(positions))
	chargeSort(op.cpu, len(ids))
	op.sorted = make([]uint32, len(ids))
	for o, i := range ids {
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
	acct      *govern.Accountant
	remaining int
	rowIdx    int
	// Per-batch output, reused from batch to batch: the vectors, their bits
	// and their NULL flags.
	vecs  []Vec
	bits  []uint64
	nulls []bool
	stats opStats
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
	op.ctx, op.cpu, op.acct = ctx, cpu, govern.AccountantFrom(ctx)
	for i := range op.cols {
		op.cols[i].region = cpu.NewRandomRegion()
	}
	op.vecs = make([]Vec, len(op.cols))
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
	n := min(len(in.Sel), max(op.remaining, 0))
	rowBytes := int64(bytesPerRowBase + len(op.cols)*bytesPerRowCell)
	for i := range n {
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return Batch{}, err
		}
		op.rowIdx++
		// Projected rows are retained in the final result: charge without
		// release.
		if err := op.acct.Charge(rowBytes); err != nil {
			return Batch{}, err
		}
		if op.cpu != nil {
			for ci := range op.cols {
				c := &op.cols[ci]
				c.gather(op.cpu, c.pos(&in, i))
			}
		}
	}
	op.remaining -= n
	if n > 0 {
		out.Cols = op.fill(&in, n)
	}
	op.stats.noteOut(out)
	return out, nil
}

// fill materializes the first n entries of in, one column at a time: the
// values through the block loaders, the NULL flags from the validity
// bitmap of the columns that have one.
func (op *projectOp) fill(in *Batch, n int) []Vec {
	w := len(op.cols)
	if cap(op.bits) < n*w {
		op.bits = make([]uint64, n*w)
	}
	if op.anyNullable && cap(op.nulls) < n*w {
		op.nulls = make([]bool, n*w)
	}
	for ci := range op.cols {
		c := &op.cols[ci]
		v := Vec{Type: c.col.Type(), Bits: op.bits[ci*n : (ci+1)*n : (ci+1)*n]}
		c.load(in, 0, v.Bits)
		valueBits(v.Type, v.Bits)
		if c.col.HasNulls() {
			v.Nulls = op.nulls[ci*n : (ci+1)*n : (ci+1)*n]
			c.loadNulls(in, 0, v.Nulls)
		}
		op.vecs[ci] = v
	}
	return op.vecs
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
		if take := max(op.n-op.emitted, 0); b.Rows() > take {
			cols := make([]Vec, len(b.Cols))
			for i, v := range b.Cols {
				cols[i] = v.truncate(take)
			}
			b.Cols = cols
		}
		op.emitted += b.Rows()
		// Under a LIMIT the delivered count is the rows handed out.
		b.Count = b.Rows()
	}
	op.stats.noteOut(b)
	return b, nil
}

func (op *limitOp) Close() error { return op.input.Close() }
