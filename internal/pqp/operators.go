package pqp

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

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
// checks in the per-position operator loops (join build and probe,
// aggregate fold, sort keys, projection). A power of two so the check is a
// mask test.
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
// drains, and projected rows live in the final result — unless the drive
// streams them, when a window's rows are released once the sink has taken
// them. The estimates cover the dominant allocations: position entries are
// 4 B, sort state holds a key value, a null flag and two index/position
// words, and each projected row holds its row slice header plus one string
// header and its text per cell.
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

// scanOp is the one table scan leaf. It evaluates a predicate chain with a
// kernel pass per chunk window, on the kernel family Kernels picked
// (native, fused or scalar short-circuit), emitting each chunk's
// chunk-relative position list as one batch — the kernel's position lists
// feed the pipeline directly, never widening into a whole-table position
// list. A table read with no predicates is the same scan over an empty
// chain: its windows emit every row without a kernel, and a hash join may
// give it one step, the transferred Bloom filter. The index access path is
// the same scan once more: Open probes the indexes, keeps only the chunks
// holding a candidate row, and each window emits its candidates, refined by
// the chain of residual predicates when there is one. Open lists the
// windows the zone maps do not prune, once; both execution modes walk that
// list. With Cores > 1, at least two surviving windows and no LIMIT cap,
// the windows become the morsels of a parallel stream (each core with its
// own simulated CPU when the plan runs against one), merged back in window
// order, so downstream operators consume an identical ordered stream and
// the scan reports the same pruning and byte counts on any core count.
// Below a fragment sink (aggregation or projection) the scan is the leaf of
// each window's fragment: on the native path the core that scanned a
// window runs the rest of it (the sink's finish) before handing the window
// over.
type scanOp struct {
	tbl *column.Table
	// preds is the chain as translated; chain is the one the windows run,
	// which a hash join above resets to preds plus its Bloom step at each
	// Open.
	preds, chain scan.Chain
	// kernels builds the chain's kernels; nil for a table scan translated
	// with no predicates, until a join hands it the family its Bloom step
	// runs on.
	kernels *Family
	// probes, when set, make the scan an index scan: Open probes each
	// index and intersects the lists into cands, the candidate rows
	// (absolute row ids, ascending), and preds is the residual chain.
	probes    []lqp.IndexProbe
	batchRows int
	// capped is set when a LIMIT above caps the rows the scan feeds: it
	// stays on one core, so no helper scans a window the consumer drops.
	// stopAfter, when > 0, is the cap on the scan's own matches (a
	// projection reading the scan directly): it stops producing once this
	// many have been emitted (rounded up to a batch boundary).
	capped    bool
	stopAfter int
	// cores/params configure parallel batch production.
	cores     int
	params    mach.Params
	countOnly bool
	// estSel is the optimizer's selectivity estimate for the whole chain,
	// used to pre-size per-chunk position lists (0 = no estimate).
	estSel float64
	// sink, set by a fragment sink above, finishes each window's fragment.
	sink fragSink

	ctx context.Context
	cpu *mach.CPU
	// windows are the chunks zone-map pruning kept (on the index path,
	// those of them holding a candidate, whose entries of cands each
	// window's Lo and Hi bound); next indexes the next one to emit.
	windows []parallel.Window
	next    int
	emitted atomic.Int64
	stream  *parallel.Stream[frag]
	// ran is how many cores produce the windows (1 + the stream's
	// helpers).
	ran      int
	counters []mach.Counters
	// perCore holds each core's in-flight batch charge and position list;
	// one backs it on a single core.
	perCore []scanCore
	one     [1]scanCore
	// pruned counts the chunks the zone maps skipped.
	pruned int64
	// bytes totals the stored value bytes the chain's predicate columns
	// covered across non-pruned windows (OperatorStats.BytesScanned).
	bytes atomic.Int64
	// cands holds the index path's candidates from Open to Close, charged
	// to the query's memory budget by retained; probeCount and probeRows
	// count the probes and the positions they materialized.
	cands                 []uint32
	retained              batchCharger
	probeCount, probeRows int64
	stats                 opStats
}

// scanCore is one core's state in a scan: its in-flight batch charge and,
// when each window's fragment finishes before the core's next window, the
// position list the kernel reuses.
type scanCore struct {
	charger   batchCharger
	positions []uint32
}

// Describe names the scan by its translated chain, so a Bloom step a join
// adds at Open does not change EXPLAIN.
func (op *scanOp) Describe() string {
	if op.probes != nil {
		cols := make([]string, len(op.probes))
		for i, pr := range op.probes {
			cols[i] = pr.Index.Column()
		}
		d := fmt.Sprintf("IndexScan[%s] on %s", strings.Join(cols, ","), op.tbl.Name())
		if len(op.preds) > 0 {
			d += " + residual " + op.kernels.Name
		}
		return d
	}
	if len(op.preds) == 0 {
		return fmt.Sprintf("TableScan(%s, all rows)", op.tbl.Name())
	}
	return fmt.Sprintf("%s on %s", op.kernels.Name, op.tbl.Name())
}

// Stats reports the kernel path for a scan whose chain ran kernels or that
// probed an index, and the encoding and bytes only when kernels ran.
func (op *scanOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	st.ChunksPruned = op.pruned
	st.Cores = op.ran
	st.IndexProbes, st.IndexRows = op.probeCount, op.probeRows
	if len(op.chain) > 0 || op.probes != nil {
		st.Path = op.kernels.Path
	}
	if len(op.chain) > 0 {
		// scan.Chain.Encoding matches the EncodingPlain/EncodingPacked/
		// EncodingMixed labels.
		st.Encoding = op.chain.Encoding()
		st.BytesScanned = op.bytes.Load()
	}
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
	op.next, op.pruned = 0, 0
	op.emitted.Store(0)
	op.bytes.Store(0)
	op.stream, op.ran, op.counters = nil, 1, nil
	acct := govern.AccountantFrom(ctx)
	if op.probes != nil {
		if err := op.probe(cpu, acct); err != nil {
			return err
		}
	}
	// Zone maps are built lazily per column and cached, so the first
	// query over a table pays one stats pass per predicate column and
	// later queries prune for free. An index scan visits only the chunks
	// holding a candidate, and counts as pruned only those of them the
	// residual chain's zone maps rule out.
	pruner := scan.NewPruner(op.chain, op.batchRows)
	op.windows = op.windows[:0]
	for begin, lo, n := 0, 0, op.tbl.Rows(); begin < n; begin += op.batchRows {
		if op.probes != nil {
			if lo == len(op.cands) {
				break
			}
			begin = int(op.cands[lo]) / op.batchRows * op.batchRows
		}
		end := min(begin+op.batchRows, n)
		w := parallel.Window{Begin: begin, End: end}
		if op.probes != nil {
			hi, _ := slices.BinarySearch(op.cands[lo:], uint32(end))
			w.Lo, w.Hi, lo = lo, lo+hi, lo+hi
		}
		if pruner.Prune(begin, end) {
			op.pruned++
			continue
		}
		op.windows = append(op.windows, w)
	}
	// A LIMIT scan usually stops within its first windows, and a single
	// window leaves a helper nothing to do, nor does a count-only scan
	// with no predicate to run per window (counting every row, or an
	// index's candidates): all stay on this core. The stream starts at the
	// first window pulled, once a sink above has had the chance to fuse
	// the rest of the fragment.
	work := len(op.chain) > 0 || !op.countOnly
	if op.cores > 1 && len(op.windows) > 1 && !op.capped && work {
		op.ran = min(op.cores, len(op.windows))
	}
	op.one[0] = scanCore{charger: batchCharger{acct: acct}}
	op.perCore = op.one[:]
	if op.ran > 1 {
		op.perCore = make([]scanCore, op.ran)
		for i := range op.perCore {
			op.perCore[i].charger.acct = acct
		}
	}
	return ctx.Err()
}

// probe is the index path's probe phase: each index binary-searches its
// key run (log2 cost on the machine model) and materializes an ascending
// absolute position list; the lists then intersect smallest-first (the
// optimizer already ordered the probes by ascending selectivity) into
// cands, which is charged to the memory budget until Close.
func (op *scanOp) probe(cpu *mach.CPU, acct *govern.Accountant) error {
	op.probeCount, op.probeRows = 0, 0
	op.retained = batchCharger{acct: acct}
	region := cpu.NewRandomRegion()
	lists := make([][]uint32, 0, len(op.probes))
	for _, pr := range op.probes {
		list, err := pr.Index.Probe(pr.Pred.Op, pr.Pred.Value)
		if err != nil {
			return fmt.Errorf("pqp: index probe %s: %w", pr.Pred, err)
		}
		op.probeCount++
		op.probeRows += int64(len(list))
		// Machine-model accounting: the binary search's pointer chase plus
		// one sequential copy per materialized position.
		levels := 1
		for n := pr.Index.Entries(); n > 1; n >>= 1 {
			levels++
		}
		cpu.Scalar(levels)
		cpu.RandomRead(region, 0, levels)
		cpu.Scalar(len(list))
		lists = append(lists, list)
	}
	if len(lists) == 1 {
		op.cands = lists[0]
	} else {
		op.cands = scan.IntersectMany(lists...)
	}
	return op.retained.swap(int64(len(op.cands)) * bytesPerPosition)
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
	f, err := op.nextFrag()
	return f.b, err
}

// nextFrag returns the next window's outcome, in window order: from the
// stream on several cores, run here on one.
func (op *scanOp) nextFrag() (frag, error) {
	if op.stopAfter > 0 && op.emitted.Load() >= int64(op.stopAfter) {
		return frag{}, EOS
	}
	if err := op.ctx.Err(); err != nil {
		return frag{}, err
	}
	if op.next == len(op.windows) {
		if op.stream != nil && op.counters == nil {
			op.counters = op.stream.PerCore()
		}
		return frag{}, EOS
	}
	w := op.windows[op.next]
	op.next++
	if op.ran == 1 {
		return op.window(0, op.cpu, w)
	}
	if op.stream == nil {
		// Cores simulate exactly when the driver does.
		var params *mach.Params
		if op.cpu != nil {
			params = &op.params
		}
		st, err := parallel.NewStream(op.ctx, params, op.window, op.cores, op.windows)
		if err != nil {
			return frag{}, err
		}
		op.stream = st
	}
	return op.stream.Next()
}

// window is a window's job: it runs the kernel over window w on core,
// against cpu, and emits the window's batch — or, under a fragment sink on
// the native path, runs the rest of the window's fragment on the same core
// and returns what the sink made of it. A simulated window returns its
// batch, and the consumer finishes it in window order, so the machine
// model's charges keep their order.
func (op *scanOp) window(core int, cpu *mach.CPU, w parallel.Window) (frag, error) {
	start := time.Now()
	sc := &op.perCore[core]
	sub := op.chain.Slice(w.Begin, w.End)
	// The fragment is done with a window's positions before this core scans
	// its next one when it finishes here, or on the consumer of a scan
	// that runs on one core.
	reuse := op.sink != nil && (cpu == nil || op.ran == 1)
	var buf []uint32
	if reuse {
		buf = sc.positions
	}
	res, err := op.run(sub, cpu, w, buf)
	if err != nil {
		return frag{}, fmt.Errorf("pqp: scan chunk [%d, %d): %w", w.Begin, w.End, err)
	}
	if reuse {
		sc.positions = res.Positions
	}
	scanned := w.End - w.Begin
	if op.probes != nil {
		// An index window reads its candidates, not the window's rows.
		scanned = w.Hi - w.Lo
	}
	op.stats.noteScanned(scanned)
	op.bytes.Add(sub.ScanBytes())
	b := Batch{Base: uint32(w.Begin), Count: res.Count}
	if !op.countOnly {
		b.Sel = res.Positions
	}
	if err := sc.charger.swap(int64(len(b.Sel)) * bytesPerPosition); err != nil {
		return frag{}, err
	}
	op.emitted.Add(int64(b.Count))
	op.stats.noteOut(b)
	op.stats.addSince(start)
	if op.sink == nil || cpu != nil {
		return frag{b: b}, nil
	}
	return op.sink.finish(core, b, start)
}

// frag is one window's outcome: the scan's batch or, once the rest of the
// window's fragment has run (done), what the sink made of it — an
// aggregation partial p, or a projection's finished window b.
type frag struct {
	b    Batch
	p    *groupState
	done bool
}

// fragSink is an operator whose input runs as window fragments (DESIGN §9):
// the aggregation sink and the projection. finish runs the part of a
// window's fragment after the scan on core; start is when the window's scan
// began.
type fragSink interface {
	finish(core int, b Batch, start time.Time) (frag, error)
}

// fragmentLeaf returns the scan whose windows run a fragment sink's
// fragments over input src, and the hash join between them when there is
// one. Both are nil for an input with no scan to drive — a sort, a pruned
// EmptyResult, or a join whose build side came out empty — which the sink
// pulls instead.
func fragmentLeaf(src Operator) (*scanOp, *joinOp) {
	switch t := src.(type) {
	case *scanOp:
		return t, nil
	case *joinOp:
		if !t.empty {
			return t.probe, t
		}
	}
	return nil, nil
}

// nextWindow returns sink's next window in window order, finished: from
// leaf, whose cores may have finished it, or pulled from src when there is
// no leaf; a window not yet finished is finished here, on the consumer.
func nextWindow(sink fragSink, leaf *scanOp, src Operator) (frag, error) {
	start := time.Now()
	var f frag
	var err error
	if leaf != nil {
		f, err = leaf.nextFrag()
	} else {
		f.b, err = src.Next()
	}
	if err == nil && !f.done {
		f, err = sink.finish(0, f.b, start)
	}
	return f, err
}

// run scans one window against cpu, its positions written into buf when
// it has room: on the index path the window's candidates, relative to its
// first row and refined by the chain when it has steps; otherwise the
// chain's kernel or, with an empty chain, every row, charged as one scalar
// instruction per position.
func (op *scanOp) run(sub scan.Chain, cpu *mach.CPU, w parallel.Window, buf []uint32) (scan.Result, error) {
	if op.probes != nil {
		cand := op.cands[w.Lo:w.Hi]
		if len(sub) == 0 && op.countOnly {
			return scan.Result{Count: len(cand)}, nil
		}
		if cap(buf) < len(cand) {
			buf = make([]uint32, len(cand))
		}
		rel := buf[:len(cand)]
		for i, p := range cand {
			rel[i] = p - uint32(w.Begin)
		}
		if len(sub) > 0 {
			kern, err := buildWindow(op.kernels.Build, sub, op.estSel)
			if err != nil {
				return scan.Result{}, err
			}
			// The kernel's positions are needed even in count-only mode:
			// the count is the size of their intersection with the
			// candidates, taken in place.
			rel = scan.IntersectPositions(rel, rel, kern.Run(cpu, true).Positions)
		}
		return scan.Result{Positions: rel, Count: len(rel)}, nil
	}
	n := w.End - w.Begin
	if len(sub) == 0 {
		res := scan.Result{Count: n}
		if !op.countOnly {
			if cap(buf) < n {
				buf = make([]uint32, n)
			}
			res.Positions = buf[:n]
			for i := range res.Positions {
				res.Positions[i] = uint32(i)
			}
			cpu.Scalar(n)
		}
		return res, nil
	}
	kern, err := buildWindow(op.kernels.Build, sub, op.sizeHint())
	if err != nil {
		return scan.Result{}, err
	}
	if pb, ok := kern.(scan.PositionBuffer); ok {
		pb.SetPositionBuffer(buf)
	}
	return kern.Run(cpu, !op.countOnly), nil
}

func (op *scanOp) Close() error {
	if op.stream != nil {
		// Close cancels morsels not yet started — the early-exit path when
		// the consumer stops pulling — and joins every helper. It must run
		// before PerCore, which waits for the helpers to wind down, and
		// before the per-core state is released.
		op.stream.Close()
		if op.counters == nil {
			op.counters = op.stream.PerCore()
		}
	}
	for i := range op.perCore {
		op.perCore[i].charger.done()
	}
	op.perCore, op.one = nil, [1]scanCore{}
	op.retained.done()
	op.cands = nil
	return nil
}

// perCoreCounters exposes the parallel scan's simulated per-core counters
// to the plan-level report (nil for single-core or native execution).
func (op *scanOp) perCoreCounters() []mach.Counters { return op.counters }

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

// loadValues fills dst like load, in the expr.Value Bits encoding
// valueBits gives: plain signed columns narrower than 64 bits sign-extend
// in the same pass that reads them.
func (c *sideCol) loadValues(in *Batch, lo int, dst []uint64) {
	t, col := c.col.Type(), c.col
	if col.IsPacked() || !t.Signed() || t.Size() == 8 {
		c.load(in, lo, dst)
		valueBits(t, dst)
		return
	}
	base, sel := c.span(in, lo, len(dst))
	d := col.Data()
	switch t.Size() {
	case 1:
		for i, p := range sel {
			dst[i] = uint64(int64(int8(d[base+int(p)])))
		}
	case 2:
		for i, p := range sel {
			dst[i] = uint64(int64(int16(binary.LittleEndian.Uint16(d[2*(base+int(p)):]))))
		}
	default:
		for i, p := range sel {
			dst[i] = uint64(int64(int32(binary.LittleEndian.Uint32(d[4*(base+int(p)):]))))
		}
	}
}

// validity returns the column's validity bitmap words and, for entries
// [lo, lo+n) of in, where to read them: entry i is non-NULL when bit
// off+sel[i] of words is set. The column must have a bitmap.
func (c *sideCol) validity(in *Batch, lo, n int) (words []uint64, off int, sel []uint32) {
	base, sel := c.span(in, lo, n)
	words, off = c.col.Validity()
	return words, off + base, sel
}

// loadNulls sets dst[i] when the column is NULL at entry lo+i of in,
// reading the validity bitmap words directly. The column must have a
// bitmap.
func (c *sideCol) loadNulls(in *Batch, lo int, dst []bool) {
	words, off, sel := c.validity(in, lo, len(dst))
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

// sortOp orders the qualifying positions by one column's values (ORDER
// BY). Sorting is a pipeline barrier: the sink folds its input
// batch-at-a-time into retained sort state (keys fetched with real random
// reads, charged to the memory accountant), sorts once, then streams the
// ordered positions back out in batches.
type sortOp struct {
	input     positionStream
	col       *column.Column
	desc      bool
	batchRows int

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

// setCountOnly is a no-op: no aggregation sink sits above a sort (the
// parser rejects ORDER BY with aggregates).
func (op *sortOp) setCountOnly(bool) {}

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

// projectOp materializes the output columns for qualifying positions, up
// to its materialization cap (the LIMIT pushdown hint or
// maxMaterializedRows). It is the second fragment sink beside groupOp
// (DESIGN §9): a window's fragment is the scan, the join probe when the
// projection sits on a join, the gather of the window's rows into per-core
// vectors and, in a drive with a sink, their rendering to text, all on the
// core that scanned the window; the consumer hands the finished windows on
// in window order. Simulated runs, and a sink-less drive, which takes the
// vectors, finish every window on the consumer with the same finish. Its
// columns are side-resolved, so it reads a join's pair batches as well as
// single-table position streams. Count passes through uncapped so the
// qualifying total stays exact; RowsOut counts the rows handed on.
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
	// render is set by DriveTo for a drive with a sink: windows leave as
	// rendered rows.
	render bool

	ctx  context.Context
	cpu  *mach.CPU
	acct *govern.Accountant
	// limit is the effective cap. delivered counts the rows handed on; a
	// fragment on any core renders at most limit less delivered, and the
	// consumer cuts each window at the cap, in window order.
	limit     int
	delivered atomic.Int64
	// leaf and join are the fragments' scan and join (fragmentLeaf), wired
	// at the first Next.
	leaf    *scanOp
	join    *joinOp
	started bool
	// inflight is a streaming drive's charge for the window the sink is
	// handed; it is released when the next window is pulled.
	inflight int64
	// scratch is per core; one backs it on a single core.
	scratch []projScratch
	one     [1]projScratch
	stats   opStats
}

// projScratch is one core's projection scratch, reused from window to
// window: the vectors, their bits and NULL flags, the renderer's buffers
// and the core's poll count.
type projScratch struct {
	vecs     []Vec
	bits     []uint64
	nulls    []bool
	renderer batchRenderer
	rowIdx   int
}

func (op *projectOp) Describe() string {
	return fmt.Sprintf("Projection[%s]", strings.Join(op.names, ", "))
}

func (op *projectOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *projectOp) child() Operator { return op.input }

// shape pre-sets the projected column names so empty results keep their
// header.
func (op *projectOp) shape(qr *QueryResult) { qr.Columns = op.names }

// capAt tightens the materialization cap (LIMIT pushdown). The scan that
// feeds the projection stays on one core: the consumer takes windows in
// order and stops at the cap, so a helper could only scan windows it
// drops. A scan read directly also takes the cap as its stop-after hint and
// scans no further than it needs; under a join, probe matches are not
// output rows, so the probe scan gets no such hint.
func (op *projectOp) capAt(n int) {
	if op.capRows == 0 || n < op.capRows {
		op.capRows = n
	}
	switch in := op.input.(type) {
	case *scanOp:
		in.capped = true
		if in.stopAfter == 0 || n < in.stopAfter {
			in.stopAfter = n
		}
	case *joinOp:
		in.probe.capped = true
	}
}

// rowBytes is what one materialized row charges the accountant.
func (op *projectOp) rowBytes() int64 {
	return int64(bytesPerRowBase + len(op.cols)*bytesPerRowCell)
}

func (op *projectOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu, op.acct = ctx, cpu, govern.AccountantFrom(ctx)
	for i := range op.cols {
		op.cols[i].region = cpu.NewRandomRegion()
	}
	op.limit = op.capRows
	if op.limit <= 0 || (!op.unbounded && op.limit > maxMaterializedRows) {
		op.limit = maxMaterializedRows
		if op.unbounded {
			op.limit = math.MaxInt
		}
	}
	op.delivered.Store(0)
	op.leaf, op.join, op.started, op.inflight = nil, nil, false, 0
	return nil
}

// start wires the fragments once Open has opened the input, and a join
// below has run its build: a native drive with a sink finishes each window
// on the core that scanned it, so the leaf takes the projection as its sink
// and every core gets scratch.
func (op *projectOp) start() {
	op.started = true
	op.leaf, op.join = fragmentLeaf(op.input)
	cores := 1
	if op.leaf != nil {
		cores = op.leaf.ran
		op.leaf.sink = nil
		if op.render {
			op.leaf.sink = op
		}
	}
	op.scratch = op.one[:]
	if cores > 1 {
		op.scratch = make([]projScratch, cores)
	}
	if op.join != nil {
		op.join.setCores(cores)
	}
}

func (op *projectOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if !op.started {
		op.start()
	}
	// A stream's sink has taken the last window by now.
	op.acct.Release(op.inflight)
	op.inflight = 0
	f, err := nextWindow(op, op.leaf, op.input)
	if err != nil {
		return Batch{}, err
	}
	return op.deliver(f.b), nil
}

// finish runs the part of a window's fragment after the scan, on core: the
// join probe, when the projection sits on a join, then the gather.
func (op *projectOp) finish(core int, b Batch, start time.Time) (frag, error) {
	b, err := stepJoin(op.join, core, b, start)
	if err != nil {
		return frag{}, err
	}
	out, err := op.gather(core, &b)
	return frag{b: out, done: true}, err
}

// gather materializes the window's rows on core, at most the cap less the
// rows already delivered: into the core's vectors, rendered to text when
// the drive renders. The rows are charged to the accountant in one charge,
// after one poll of the context over them.
func (op *projectOp) gather(core int, in *Batch) (Batch, error) {
	sc := &op.scratch[core]
	out := Batch{Base: in.Base, Count: in.Count}
	n := min(len(in.Sel), max(op.limit-int(op.delivered.Load()), 0))
	if err := pollSpan(op.ctx, sc.rowIdx, n); err != nil {
		return Batch{}, err
	}
	sc.rowIdx += n
	if n == 0 {
		return out, nil
	}
	if err := op.acct.Charge(int64(n) * op.rowBytes()); err != nil {
		return Batch{}, err
	}
	if op.cpu != nil {
		for i := range n {
			for ci := range op.cols {
				c := &op.cols[ci]
				c.gather(op.cpu, c.pos(in, i))
			}
		}
	}
	cols := op.fill(sc, in, n)
	if op.render {
		out.text = sc.renderer.render(cols)
	} else {
		out.Cols = cols
	}
	return out, nil
}

// fill materializes the first n entries of in into sc's vectors, one
// column at a time: the values through the block loaders, the NULL flags
// from the validity bitmap of the columns that have one.
func (op *projectOp) fill(sc *projScratch, in *Batch, n int) []Vec {
	w := len(op.cols)
	if cap(sc.bits) < n*w {
		sc.bits = make([]uint64, n*w)
	}
	if op.anyNullable && cap(sc.nulls) < n*w {
		sc.nulls = make([]bool, n*w)
	}
	if sc.vecs == nil {
		sc.vecs = make([]Vec, w)
	}
	for ci := range op.cols {
		c := &op.cols[ci]
		v := Vec{Type: c.col.Type(), Bits: sc.bits[ci*n : (ci+1)*n : (ci+1)*n]}
		c.loadValues(in, 0, v.Bits)
		if c.col.HasNulls() {
			v.Nulls = sc.nulls[ci*n : (ci+1)*n : (ci+1)*n]
			c.loadNulls(in, 0, v.Nulls)
		}
		sc.vecs[ci] = v
	}
	return sc.vecs
}

// deliver hands a finished window on, in window order: it cuts the rows
// past the cap, releasing their charge, and counts the rest as delivered.
// A streaming drive holds the window's charge until the next Next. The
// window counts toward RowsIn here, so a window a helper finished but the
// consumer never took (under a LIMIT) is not counted.
func (op *projectOp) deliver(b Batch) Batch {
	rows, room := b.Rows(), op.limit-int(op.delivered.Load())
	if rows > room {
		b.truncate(room)
		op.acct.Release(int64(rows-room) * op.rowBytes())
		rows = room
	}
	op.delivered.Add(int64(rows))
	op.stats.noteIn(b)
	if op.unbounded {
		op.inflight = int64(rows) * op.rowBytes()
	}
	op.stats.rowsOut.Add(int64(rows))
	op.stats.batches.Add(1)
	return b
}

// Close closes the input first, which joins any helper still running a
// fragment, then releases a stream's last charge and drops the scratch.
func (op *projectOp) Close() error {
	err := op.input.Close()
	op.acct.Release(op.inflight)
	op.inflight = 0
	op.scratch, op.one = nil, [1]projScratch{}
	return err
}

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
			b.truncate(take)
		}
		op.emitted += b.Rows()
		// Under a LIMIT the delivered count is the rows handed out.
		b.Count = b.Rows()
	}
	op.stats.noteOut(b)
	return b, nil
}

func (op *limitOp) Close() error { return op.input.Close() }
