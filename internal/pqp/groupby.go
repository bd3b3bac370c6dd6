package pqp

import (
	"context"
	"math"
	"sync"
	"time"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/govern"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

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

// directSpan is the widest key range the sink indexes directly: a single
// integer key that the zone maps bound to at most this many values uses its
// offset from the least value as the group id, instead of hashing.
const directSpan = 1 << 16

// groupAgg is one aggregate bound to its column (nil for COUNT(*)).
type groupAgg struct {
	kind lqp.AggKind
	sideCol
	// lead is set for a float MIN or MAX, whose groups also keep their
	// first value (groupState.leads).
	lead bool
}

// aggCell is one aggregate's running state in one group. acc holds the
// integer sum (two's complement, wrapping), the float sum's bits, or the
// MIN/MAX value in expr.Value.Bits encoding; n counts the non-NULL values
// folded. A float MIN/MAX cell's acc is the extreme over the non-NaN
// values, and a NaN only while no other value has come.
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

// foldIntExtreme keeps in each group the value that orders first under
// mask (see extremeMask), without a branch: an empty cell orders last.
func foldIntExtreme(cells []aggCell, gids []int32, vals []uint64, mask uint64) {
	for i, v := range vals {
		c := &cells[gids[i]]
		cur := c.acc ^ mask
		if c.n == 0 {
			cur = ^uint64(0)
		}
		c.acc = min(cur, v^mask) ^ mask
		c.n++
	}
}

// replaces reports whether float x replaces cur as the MIN (MAX when max)
// over non-NaN values: when it is strictly smaller (larger), or when cur is
// a NaN and x is not.
func replaces(x, cur float64, max bool) bool {
	if max {
		return x > cur || (cur != cur && x == x)
	}
	return x < cur || (cur != cur && x == x)
}

// foldFloatExtreme is foldIntExtreme for floats: each group's cell keeps
// the extreme of its non-NaN values, ties going to the first (-0 and +0),
// and leads keeps the group's first value. finishItem reports the lead
// when it is a NaN, so a NaN that comes first stays, as
// expr.Value.Compare decides; keeping both makes the cell mergeable.
func foldFloatExtreme(cells []aggCell, leads []uint64, gids []int32, vals []uint64, max bool) {
	for i, v := range vals {
		g := gids[i]
		c := &cells[g]
		if c.n == 0 {
			c.acc, leads[g] = v, v
		} else if replaces(math.Float64frombits(v), math.Float64frombits(c.acc), max) {
			c.acc = v
		}
		c.n++
	}
}

// foldTotal is the zero-key fold: all of vals goes into the one cell c
// (and lead, for a float MIN/MAX), accumulated in locals with the same
// rules as the per-group loops.
func foldTotal(it *groupAgg, c *aggCell, leads []uint64, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	t, acc := it.col.Type(), c.acc
	sum, max := it.kind == lqp.AggSum || it.kind == lqp.AggAvg, it.kind == lqp.AggMax
	if c.n == 0 && !sum {
		acc = vals[0]
		if leads != nil {
			leads[0] = acc
		}
	}
	switch {
	case sum && t.Float():
		s := math.Float64frombits(acc)
		for _, v := range vals {
			s += math.Float64frombits(v)
		}
		acc = math.Float64bits(s)
	case sum:
		for _, v := range vals {
			acc += v
		}
	case t.Float():
		best := math.Float64frombits(acc)
		for _, v := range vals {
			if x := math.Float64frombits(v); replaces(x, best, max) {
				best, acc = x, v
			}
		}
	default:
		mask := extremeMask(t, max)
		m := acc ^ mask
		for _, v := range vals {
			m = min(m, v^mask)
		}
		acc = m ^ mask
	}
	c.acc = acc
	c.n += int64(len(vals))
}

// groupRow is a group's first input row: its probe-side position and, over
// a join, its build-side one. The group's key values are rendered from it.
type groupRow struct{ probe, build uint32 }

// groupState is one set of groups: the partial one window folds into, or
// the sink's merge of every window's. Row counts and cells are flat slices
// indexed by group id. Hashed, ids are dense in first-seen order, the
// keyTable holds the key words and first the groups' first rows. Direct, a
// group's id is its key's offset from the least key (groupOp.lo), the
// slices span every offset, and a group exists where its count is not 0.
type groupState struct {
	table  keyTable
	direct bool
	first  []groupRow  // per hashed group
	counts []int64     // rows per group
	cells  [][]aggCell // per item, then per group; nil for COUNT(*) items
	leads  [][]uint64  // per float MIN/MAX item, then per group: its first value
	rows   int         // input rows folded
	// charged is what this partial's groups charged the accountant; it is
	// released when the partial is recycled.
	charged int64
}

// size returns how many groups the state holds.
func (s *groupState) size() int {
	if !s.direct {
		return len(s.counts)
	}
	n := 0
	for _, c := range s.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// local returns the id in s of the k-th group a merge lists, whose merged
// id is id: the same slot when direct.
func (s *groupState) local(k int, id int32) int32 {
	if s.direct {
		return id
	}
	return int32(k)
}

// addGroup appends a zeroed count and aggregate cells for a new hashed
// group.
func (s *groupState) addGroup(items []groupAgg) {
	s.counts = append(s.counts, 0)
	for j := range items {
		if items[j].kind != lqp.AggCount {
			s.cells[j] = append(s.cells[j], aggCell{})
		}
		if items[j].lead {
			s.leads[j] = append(s.leads[j], 0)
		}
	}
}

// foldScratch is one core's per-block scratch: group ids, their NULL-dropped
// copy, key words (stride per entry) and one column's values, plus the
// core's poll count.
type foldScratch struct {
	gids, liveGids []int32
	keyWords, vals []uint64
	rowIdx         int
}

// groupOp is the aggregation sink. Its input is consumed as windows: each
// window's batch runs the rest of its fragment — the join probe below the
// sink, if any, then the fold — on the core that scanned it, into a
// window-local partial (groupState), and the consumer merges the partials
// in window order. A parallel native scan runs the fragments on its
// helpers; every other input, and every simulated run, runs them on the
// consumer, in window order, so the machine model's charges keep their
// order. One core folds per window too, so results are bit-identical on
// any core count: a float SUM or AVG is the window-ordered sum of the
// windows' partial sums, each taken in row order, and an input of one
// window is folded exactly as one pass over its rows.
//
// The fold reads each key and aggregate column probe- or build-side, so it
// consumes join pair batches as well as plain position streams. Each block
// of aggBlock entries is first resolved to group ids — every row's keys
// become a stride of uint64 words (scan.NormKeyBits per key, plus NULL-flag
// words when a key column holds NULLs) looked up in the partial's
// keyTable — then each aggregate folds its column into flat per-group
// cells with a loop specialised by the column's type class. A single
// integer key that the zone maps bound to at most directSpan values, over
// an input of two windows or more, is indexed directly instead of hashed.
// With zero keys every entry belongs to the one group, folded in locals:
// the plain aggregate, emitted as a single final batch of aggregate
// values. With keys the groups are emitted as rows in ascending key order
// (NULL keys last, ties in first-seen order). NULL values are ignored, per
// SQL; an aggregate over no non-NULL input is NULL. Under the machine
// model the sink charges one gathered read per row for each key and each
// non-COUNT item, in row order.
type groupOp struct {
	input     positionStream
	keys      []sideCol
	keyNames  []string
	items     []groupAgg
	labels    []string
	batchRows int

	ctx  context.Context
	cpu  *mach.CPU
	acct *govern.Accountant
	// join is the hash join between the sink and its input's leaf, whose
	// probe runs in each window's fragment; nil without one.
	join *joinOp
	// stride is the key words per group. direct selects direct group ids:
	// key word w has id (w - lo) & mask, below span.
	stride   int
	direct   bool
	lo, mask uint64
	span     int
	// groups is the merge of the windows' partials; the first partial
	// merged becomes it.
	groups  *groupState
	ngroups int64
	// local is the first partial of a run, held in the operator so that a
	// one-window query allocates none; fresh points at it until taken.
	local groupState
	fresh *groupState
	// free holds merged partials for reuse, shared by the cores.
	mu   sync.Mutex
	free []*groupState
	// scratch is per core; one backs it on a single core.
	scratch []foldScratch
	one     [1]foldScratch
	ids     []int32 // merge scratch: the merged ids of a partial's groups
	ordered []int32 // group ids in output order, once drained
	drained bool
	cursor  int
	stats   opStats
}

func (op *groupOp) Describe() string { return lqp.FormatGroupBy(op.keyNames, op.labels) }

func (op *groupOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	if len(op.keys) > 0 {
		st.Groups = op.ngroups
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
		it := &op.items[i]
		if it.col != nil {
			it.region = cpu.NewRandomRegion()
			it.lead = it.col.Type().Float() && (it.kind == lqp.AggMin || it.kind == lqp.AggMax)
		}
	}
	op.stride = len(op.keys)
	for _, kc := range op.keys {
		if kc.col != nil && kc.col.HasNulls() {
			op.stride += (len(op.keys) + 63) / 64
			break
		}
	}
	op.join, op.direct = nil, false
	op.groups, op.ngroups, op.free, op.ordered = nil, 0, nil, nil
	op.local = groupState{}
	op.fresh = &op.local
	op.cursor, op.drained = 0, false
	return nil
}

func (op *groupOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if !op.drained {
		if err := op.run(); err != nil {
			return Batch{}, err
		}
		op.drained = true
		if len(op.keys) == 0 {
			op.groups.counts[0] = int64(op.groups.rows)
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
			out := Batch{Count: op.groups.rows, Aggregates: vals, AggNulls: nulls}
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
	// Keys render from each group's first row, read like an input batch; a
	// direct group's key is its id's offset from the least key.
	var first Batch
	if !op.groups.direct {
		first = Batch{Sel: make([]uint32, n), BuildSel: make([]uint32, n)}
		for i, g := range ids {
			first.Sel[i], first.BuildSel[i] = op.groups.first[g].probe, op.groups.first[g].build
		}
	}
	for k := range op.keys {
		kc := &op.keys[k]
		v := Vec{Type: kc.col.Type(), Bits: bits[k*n : (k+1)*n : (k+1)*n]}
		if op.groups.direct {
			for i, g := range ids {
				v.Bits[i] = (op.lo + uint64(g)) & op.mask
			}
		} else {
			kc.load(&first, 0, v.Bits)
		}
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

// run drives every window of the input through its fragment and merges
// the partials in window order. The fragment's leaf is the scan under the
// sink, or under the join below it: a table scan, with or without
// predicates or on the index path, runs the rest of each fragment itself
// (finish), on whichever core scanned the window. An input with no scan to
// drive — a pruned EmptyResult, or a join whose build side came out empty —
// is pulled here and ends at once.
func (op *groupOp) run() error {
	leaf, join := fragmentLeaf(op.input)
	op.join = join
	cores := 1
	if leaf != nil {
		cores = leaf.ran
		leaf.sink = op
		op.sizeDirect(leaf)
	}
	op.scratch = op.one[:]
	if cores > 1 {
		op.scratch = make([]foldScratch, cores)
	}
	if op.join != nil {
		op.join.setCores(cores)
	}
	for {
		f, err := nextWindow(op, leaf, op.input)
		if err == EOS {
			break
		}
		if err != nil {
			if op.groups == nil && f.p != nil {
				// The groups the first window had made when it failed.
				op.ngroups = int64(f.p.size())
			}
			return err
		}
		if err := op.merge(f.p); err != nil {
			return err
		}
	}
	if op.groups == nil {
		g, err := op.partial()
		if err != nil {
			return err
		}
		op.groups = g
	}
	op.ngroups = int64(op.groups.size())
	return nil
}

// sizeDirect switches the sink to direct-indexed group ids when its one
// key is an integer column without NULLs that the zone maps bound to at
// most directSpan values: over the windows the scan kept, or over every
// zone of a build-side column. Only an input of two windows or more pays
// for the id array; a one-window input keeps the growing hash table.
func (op *groupOp) sizeDirect(leaf *scanOp) {
	if len(op.keys) != 1 || op.stride != 1 || len(leaf.windows) < 2 {
		return
	}
	kc := &op.keys[0]
	t := kc.col.Type()
	if t.Float() {
		return
	}
	zm := kc.col.ZoneMap(leaf.batchRows)
	var lo, hi, loRaw uint64
	seen := false
	visit := func(z column.Zone) {
		if !z.HasCmp {
			return
		}
		zlo, zhi := expr.OrderKey(t, z.Min), expr.OrderKey(t, z.Max)
		if !seen || zlo < lo {
			lo, loRaw = zlo, z.Min
		}
		if !seen || zhi > hi {
			hi = zhi
		}
		seen = true
	}
	if kc.build {
		for z := range zm.Zones() {
			visit(zm.Zone(z))
		}
	} else {
		for _, w := range leaf.windows {
			visit(zm.Zone(w.Begin / leaf.batchRows))
		}
	}
	if !seen || hi-lo >= directSpan {
		return
	}
	op.direct, op.lo, op.span = true, loRaw, int(hi-lo)+1
	op.mask = ^uint64(0) >> (64 - 8*t.Size())
}

// finish runs the part of a window's fragment after the scan, on core: the
// join probe, when the sink sits on a join, then the fold into a
// window-local partial. start is when the window's scan began, so each
// operator's time stays inclusive of its input's.
func (op *groupOp) finish(core int, b Batch, start time.Time) (frag, error) {
	b, err := stepJoin(op.join, core, b, start)
	if err != nil {
		return frag{}, err
	}
	p, err := op.foldWindow(core, b)
	return frag{p: p, done: true}, err
}

// partial returns an empty partial: the operator's own first, then a
// recycled one, then a new one.
func (op *groupOp) partial() (*groupState, error) {
	op.mu.Lock()
	p := op.fresh
	op.fresh = nil
	if n := len(op.free); p == nil && n > 0 {
		p = op.free[n-1]
		op.free = op.free[:n-1]
		op.mu.Unlock()
		return p, nil
	}
	op.mu.Unlock()
	if p == nil {
		p = new(groupState)
	}
	p.cells = make([][]aggCell, len(op.items))
	for j := range op.items {
		if op.items[j].lead {
			p.leads = make([][]uint64, len(op.items))
			break
		}
	}
	switch {
	case len(op.keys) == 0:
		p.addGroup(op.items)
	case op.direct:
		// The arrays are charged once, for all the partial's groups: per
		// key value a count, and a cell (and lead) per aggregate.
		per := int64(8)
		for _, it := range op.items {
			if it.kind != lqp.AggCount {
				per += 16
			}
			if it.lead {
				per += 8
			}
		}
		if err := op.acct.Charge(per * int64(op.span)); err != nil {
			return nil, err
		}
		p.direct = true
		p.counts = make([]int64, op.span)
		for j, it := range op.items {
			if it.kind != lqp.AggCount {
				p.cells[j] = make([]aggCell, op.span)
			}
			if it.lead {
				p.leads[j] = make([]uint64, op.span)
			}
		}
	default:
		p.table = newKeyTable(op.stride, 0)
	}
	return p, nil
}

// recycle releases a merged partial's group charges, empties it and keeps
// it for the next window; ids are its groups, as merge listed them.
func (op *groupOp) recycle(p *groupState, ids []int32) {
	op.acct.Release(p.charged)
	p.charged, p.rows = 0, 0
	switch {
	case p.direct:
		for _, g := range ids {
			p.counts[g] = 0
			for j := range p.cells {
				if p.cells[j] != nil {
					p.cells[j][g] = aggCell{}
				}
			}
		}
	default:
		p.table.reset()
		p.first, p.counts = p.first[:0], p.counts[:0]
		for j := range p.cells {
			p.cells[j] = p.cells[j][:0]
		}
		for j := range p.leads {
			p.leads[j] = p.leads[j][:0]
		}
		if len(op.keys) == 0 {
			p.addGroup(op.items)
		}
	}
	op.mu.Lock()
	op.free = append(op.free, p)
	op.mu.Unlock()
}

// groupCost is what one group charges the accountant.
func (op *groupOp) groupCost() int64 {
	return int64(bytesPerGroupBase + (len(op.keys)+len(op.items))*bytesPerGroupCell)
}

// foldWindow is the sink's step of a window's fragment: it folds the
// window's batch into a partial of its own, on core, block by block. In
// count-only mode (zero keys, every item COUNT(*)) batches carry no
// positions and only the row count moves. On failure the partial comes
// back with the error, so the sink can report the groups it had made.
func (op *groupOp) foldWindow(core int, in Batch) (*groupState, error) {
	p, err := op.partial()
	if err != nil {
		return nil, err
	}
	sc := &op.scratch[core]
	op.stats.noteIn(in)
	p.rows += in.Count
	n := len(in.Sel)
	if err := pollSpan(op.ctx, sc.rowIdx, n); err != nil {
		return p, err
	}
	sc.rowIdx += n
	if op.cpu != nil {
		op.replayGathers(&in)
	}
	if n == 0 {
		return p, nil
	}
	if block := min(n, aggBlock); cap(sc.gids) < block {
		sc.gids, sc.liveGids = make([]int32, block), make([]int32, block)
		sc.keyWords, sc.vals = make([]uint64, block*op.stride), make([]uint64, block)
	}
	for lo := 0; lo < n; lo += aggBlock {
		m := min(aggBlock, n-lo)
		var gids []int32
		if len(op.keys) > 0 {
			gids = sc.gids[:m]
			if err := op.resolve(p, sc, &in, lo, gids); err != nil {
				return p, err
			}
		}
		op.fold(p, sc, &in, lo, m, gids)
	}
	return p, nil
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

// resolve sets gids to p's group ids of entries [lo, lo+len(gids)) of in,
// creating groups on first sight — each charged to the memory accountant
// as it is created — and counting rows per group.
func (op *groupOp) resolve(p *groupState, sc *foldScratch, in *Batch, lo int, gids []int32) error {
	n, stride, nk := len(gids), op.stride, len(op.keys)
	raw := sc.vals[:n]
	words := raw // one key without NULLs: its words are its values
	if stride > 1 {
		words = sc.keyWords[:n*stride]
	}
	if stride > nk {
		for i := range n {
			clear(words[i*stride+nk : (i+1)*stride])
		}
	}
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
			vw, off, sel := kc.validity(in, lo, n)
			for i, q := range sel {
				if b := off + int(q); vw[b>>6]>>(b&63)&1 == 0 {
					raw[i] = 0
					words[i*stride+flag] |= bit
				}
			}
		}
		if stride > 1 {
			for i, r := range raw {
				words[i*stride+k] = r
			}
		}
	}
	if p.direct {
		lo, mask, counts := op.lo, op.mask, p.counts
		for i, w := range words {
			g := int32((w - lo) & mask)
			gids[i] = g
			counts[g]++
		}
		return nil
	}
	cost := op.groupCost()
	for i := range gids {
		var g int32
		var slot int
		if stride == 1 {
			g, slot = p.table.find1(words[i])
		} else {
			g, slot = p.table.find(words[i*stride : (i+1)*stride])
		}
		if g < 0 {
			if err := op.acct.Charge(cost); err != nil {
				return err
			}
			p.charged += cost
			g = p.table.insert(words[i*stride:(i+1)*stride], slot)
			first := groupRow{probe: in.Base + in.Sel[lo+i]}
			if in.BuildSel != nil {
				first.build = in.BuildSel[lo+i]
			}
			p.first = append(p.first, first)
			p.addGroup(op.items)
		}
		gids[i] = g
		p.counts[g]++
	}
	return nil
}

// fold folds the n entries of in from lo into p's cells, one aggregate
// column at a time: into each entry's group gids[i], or into the one group
// when gids is nil (zero keys). NULL values are dropped through the
// validity bitmap words.
func (op *groupOp) fold(p *groupState, sc *foldScratch, in *Batch, lo, n int, gids []int32) {
	for j := range op.items {
		it := &op.items[j]
		if it.col == nil {
			continue
		}
		vals, live := sc.vals[:n], gids
		it.loadValues(in, lo, vals)
		if it.col.HasNulls() {
			vw, off, sel := it.validity(in, lo, n)
			k := 0
			if gids == nil {
				for i, q := range sel {
					b := off + int(q)
					vals[k] = vals[i]
					k += int(vw[b>>6] >> (b & 63) & 1)
				}
			} else {
				live = sc.liveGids[:n]
				for i, q := range sel {
					b := off + int(q)
					vals[k], live[k] = vals[i], gids[i]
					k += int(vw[b>>6] >> (b & 63) & 1)
				}
				live = live[:k]
			}
			vals = vals[:k]
		}
		t := it.col.Type()
		cells := p.cells[j]
		var leads []uint64
		if it.lead {
			leads = p.leads[j]
		}
		switch sum := it.kind == lqp.AggSum || it.kind == lqp.AggAvg; {
		case gids == nil:
			foldTotal(it, &cells[0], leads, vals)
		case sum && t.Float():
			foldFloatSum(cells, live, vals)
		case sum:
			foldIntSum(cells, live, vals)
		case t.Float():
			foldFloatExtreme(cells, leads, live, vals, it.kind == lqp.AggMax)
		default:
			foldIntExtreme(cells, live, vals, extremeMask(t, it.kind == lqp.AggMax))
		}
	}
}

// merge folds window partial p into the sink's groups, on the consumer and
// in window order, then recycles p. The first partial becomes the groups
// themselves. A group new to the merge is charged to the accountant and
// keeps p's first row, so first-seen order is row order.
func (op *groupOp) merge(p *groupState) error {
	g := op.groups
	if g == nil {
		op.groups = p
		return nil
	}
	g.rows += p.rows
	// ids[k] is the merged id of p's k-th group in first-seen order.
	ids := op.ids[:0]
	switch {
	case len(op.keys) == 0:
		ids = append(ids, 0)
	case p.direct:
		for id, c := range p.counts {
			if c != 0 {
				ids = append(ids, int32(id))
			}
		}
	default:
		for lg := range p.size() {
			key := p.table.words[lg*op.stride : (lg+1)*op.stride]
			id, slot := g.table.find(key)
			if id < 0 {
				if err := op.acct.Charge(op.groupCost()); err != nil {
					return err
				}
				id = g.table.insert(key, slot)
				g.first = append(g.first, p.first[lg])
				g.addGroup(op.items)
			}
			ids = append(ids, id)
		}
	}
	op.ids = ids
	for k, id := range ids {
		g.counts[id] += p.counts[p.local(k, id)]
	}
	for j := range op.items {
		it := &op.items[j]
		if it.col == nil {
			continue
		}
		gc, pc := g.cells[j], p.cells[j]
		t, isMax := it.col.Type(), it.kind == lqp.AggMax
		mask := extremeMask(t, isMax)
		for k, id := range ids {
			lg := p.local(k, id)
			src := pc[lg]
			c := &gc[id]
			switch {
			case src.n == 0:
				continue
			case c.n == 0:
				*c = src
				if it.lead {
					g.leads[j][id] = p.leads[j][lg]
				}
				continue
			case it.kind == lqp.AggSum || it.kind == lqp.AggAvg:
				if t.Float() {
					c.acc = math.Float64bits(math.Float64frombits(c.acc) + math.Float64frombits(src.acc))
				} else {
					c.acc += src.acc
				}
			case t.Float():
				if replaces(math.Float64frombits(src.acc), math.Float64frombits(c.acc), isMax) {
					c.acc = src.acc
				}
			case src.acc^mask < c.acc^mask:
				c.acc = src.acc
			}
			c.n += src.n
		}
	}
	op.recycle(p, ids)
	return nil
}

// finishItem returns aggregate j's value in group g and whether it is
// NULL. COUNT(*) is the group's row count. A SUM, MIN, MAX or AVG over no
// non-NULL input is NULL, which SQL defines, and its value the result
// type's zero. A float MIN or MAX whose first value is a NaN is that NaN.
func (op *groupOp) finishItem(j int, g int32) (expr.Value, bool) {
	it, s := &op.items[j], op.groups
	switch {
	case it.kind == lqp.AggCount:
		return expr.NewInt(expr.Int64, s.counts[g]), false
	case it.col == nil: // a join proved empty: nothing was folded
		return finishCell(it.kind, 0, s.cells[j][g])
	}
	c := s.cells[j][g]
	if it.lead && c.n > 0 && math.IsNaN(math.Float64frombits(s.leads[j][g])) {
		c.acc = s.leads[j][g]
	}
	return finishCell(it.kind, it.col.Type(), c)
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
	s := op.groups
	n, nk, stride := s.size(), len(op.keys), op.stride
	chargeSort(op.cpu, n)
	if s.direct {
		// A slot is the key's offset from the least key: slot order is
		// key order, and no two groups tie.
		op.ordered = make([]int32, 0, n)
		for g, c := range s.counts {
			if c > 0 {
				op.ordered = append(op.ordered, int32(g))
			}
		}
		return
	}
	// Sort words per group, most significant first: per key, a NULL flag
	// (when the keys hold NULLs) then its order key.
	per := nk
	if stride > nk {
		per = 2 * nk
	}
	sw := make([]uint64, 0, n*per)
	for g := range n {
		key := s.table.words[g*stride:][:stride]
		for k := range op.keys {
			if stride > nk {
				sw = append(sw, key[nk+k/64]>>(k%64)&1)
			}
			sw = append(sw, expr.OrderKey(op.keys[k].col.Type(), key[k]))
		}
	}
	op.ordered = expr.RadixOrder(sw, per, n)
}

// Close closes the input first, which joins any helper still running a
// fragment, then drops the groups, partials and scratch; the group count
// and the output order stay for Stats.
func (op *groupOp) Close() error {
	err := op.input.Close()
	op.groups, op.fresh, op.free, op.scratch = nil, nil, nil, nil
	op.local, op.one = groupState{}, [1]foldScratch{}
	return err
}
