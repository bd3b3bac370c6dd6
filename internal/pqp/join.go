package pqp

// The multi-table pipeline: a build/probe vectorized hash join speaking the
// same Volcano-with-vectors Open/Next/Close contract as the single-table
// operators. The aggregation sink and the projection above it read its
// pair batches through side-resolved columns (sideCol).
//
// Open drains the build side and resolves its keys — normalized raw key
// bits (scan.NormKeyBits), NULL and NaN keys dropped — in the same keyTable
// the aggregation sink groups with, sized from the drained row count. Each
// key's dense id indexes a CSR layout: starts[id]:starts[id+1] is its span
// of one positions array, in build-stream (ascending) order. No payload is
// copied; everything downstream reads the build table's columns by
// position. The probe step resolves each probe batch aggBlock entries at a
// time, so a probe row's matches are emitted in ascending build position
// and pairs keep probe order. The table is read-only once Open returns, so
// under a fragment sink the step runs in each window's fragment, on
// whichever core scanned the window, with that core's scratch. When the
// optimizer marked predicate transfer, the table's key words also fill a
// Bloom filter. Open tests it on up to
// bloomSamples evenly spaced probe keys and injects it into the probe
// side's scan chain, before the probe scan opens, only if it rejects more
// than 5 % of them: then probe rows without a possible partner die inside
// the scan kernel (Yang et al.'s predicate transfer). Residual ON
// predicates are evaluated per candidate-pair batch by gathering both
// sides' values into temporary row-aligned columns and running the
// column-vs-column comparator family through the same kernel flavor
// (native SWAR / emulated fused / SISD) the configuration selects.

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/govern"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// bytesPerBuildRow is the build scratch per drained row: its key word and
// its position, held until the table is laid out.
const bytesPerBuildRow = 8 + 4

// bloomSamples is how many evenly spaced probe keys Open tests against the
// Bloom filter. A filter that passes 95 % of them or more costs a test per
// probe row and saves next to nothing, so it is not injected.
const bloomSamples = 1024

// idDeadKey is the probe-block id, below the keyTable's -1 (no build
// match), of a NULL or NaN key.
const idDeadKey = -2

// joinResidual is one bound residual ON comparison (probe OP build).
type joinResidual struct {
	probeCol *column.Column
	buildCol *column.Column
	op       expr.CmpOp
}

// joinScratch is one core's probe scratch: a block's key words, dead-key
// flags and resolved ids, the pair vectors it emits (reused from batch to
// batch), its in-flight batch charge and its poll count.
type joinScratch struct {
	keyBuf         [aggBlock]uint64
	deadBuf        [aggBlock]bool
	idBuf          [aggBlock]int32
	pairsP, pairsB []uint32
	charger        batchCharger
	rowIdx         int
}

// joinOp is the inner hash equi-join. Open drains the build side into the
// key table (and Bloom filter); each probe batch then goes through step,
// which looks up candidate pairs and filters them through the residual
// comparators, emitting a pair batch (Sel = probe-relative, BuildSel =
// build-absolute). Next pulls the probe batch and steps it on the
// consumer; under a fragment sink (aggregation or projection) the window's
// fragment steps it on the core that scanned it.
type joinOp struct {
	// probe is the probe-side scan, whose chain receives the Bloom
	// prefilter at Open (before the scan opens). Each Open resets its
	// chain to its translated predicates, so reruns of the plan add at
	// most one Bloom step.
	probe     *scanOp
	build     positionStream
	probeKey  *column.Column
	buildKey  *column.Column
	keyType   expr.Type
	residuals []joinResidual
	transfer  bool
	// kernBuild constructs the kernel that evaluates residual
	// column-vs-column chains over the gathered pair columns.
	kernBuild func(scan.Chain) (scan.Kernel, error)
	space     *mach.AddrSpace
	label     string

	ctx     context.Context
	cpu     *mach.CPU
	acct    *govern.Accountant
	regionB int
	regionP int
	regionG int
	// table holds the build keys; starts/positions are the CSR layout of
	// each key id's build positions.
	table        keyTable
	starts       []uint32
	positions    []uint32
	bloomStats   *scan.BloomStats
	bloomSkipped bool
	buildRows    int64
	probeRows    atomic.Int64
	probeOpened  bool
	buildClosed  bool
	empty        bool
	rowIdx       int
	// scratch is per core; one backs it on a single core.
	scratch []joinScratch
	one     [1]joinScratch
	stats   opStats
}

func (op *joinOp) Describe() string {
	s := fmt.Sprintf("HashJoin[%s]", op.label)
	if op.transfer {
		s += " (bloom transfer)"
	}
	return s
}

func (op *joinOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	st.BuildRows = op.buildRows
	st.ProbeRows = op.probeRows.Load()
	st.BloomSkipped = op.bloomSkipped
	if op.bloomStats != nil {
		st.BloomChecks = op.bloomStats.Checks.Load()
		st.BloomPass = op.bloomStats.Pass.Load()
	}
	return st
}

func (op *joinOp) child() Operator { return op.probe }

// buildChild exposes the second subtree to the plan walks (Format,
// OperatorStats).
func (op *joinOp) buildChild() Operator { return op.build }

// setCountOnly is a no-op: the join always needs real positions on both
// sides to form pairs.
func (op *joinOp) setCountOnly(bool) {}

// Open runs the entire build phase: drain the build child, lay out the
// key table (charged against the query's memory budget), and when
// predicate transfer is on and pays, build the Bloom filter and inject it
// into the probe scan's chain — all before the probe side opens.
func (op *joinOp) Open(ctx context.Context, cpu *mach.CPU) error {
	defer op.stats.timed()()
	op.ctx, op.cpu, op.acct = ctx, cpu, govern.AccountantFrom(ctx)
	op.one[0] = joinScratch{charger: batchCharger{acct: op.acct}}
	op.scratch = op.one[:]
	op.buildRows, op.rowIdx = 0, 0
	op.probeRows.Store(0)
	op.probeOpened, op.buildClosed, op.empty = false, false, false
	op.bloomStats, op.bloomSkipped = nil, false
	op.probe.chain = slices.Clip(op.probe.preds)
	op.regionB = cpu.NewRandomRegion()
	op.regionP = cpu.NewRandomRegion()
	op.regionG = cpu.NewRandomRegion()
	if err := op.build.Open(ctx, cpu); err != nil {
		op.build.Close()
		op.buildClosed = true
		return err
	}
	if err := op.drainBuild(); err != nil {
		op.build.Close()
		op.buildClosed = true
		return err
	}
	op.build.Close()
	op.buildClosed = true
	if op.buildRows == 0 {
		// Empty build side: no probe row can join. The probe subtree is
		// never opened, so its scan (and any parallel morsels) never runs.
		op.empty = true
		return nil
	}
	if op.transfer {
		if err := op.transferBloom(); err != nil {
			return err
		}
	}
	if err := op.probe.Open(ctx, cpu); err != nil {
		return err
	}
	op.probeOpened = true
	return nil
}

// drainBuild folds the whole build-side position stream into the key
// table. NULL keys never join; NaN float keys equal nothing (including
// themselves) and are dropped too.
func (op *joinOp) drainBuild() error {
	key := sideCol{col: op.buildKey}
	size := op.buildKey.Type().Size()
	var keys []uint64
	var pos []uint32
	// The scratch is retained until the table is laid out: budget its
	// growth before allocating, and return it once the layout is built.
	var scratch int64
	defer func() { op.acct.Release(scratch) }()
	for {
		b, err := op.build.Next()
		if err == EOS {
			break
		}
		if err != nil {
			return err
		}
		if err := faultinject.Hit(faultinject.SiteJoinBuildAlloc); err != nil {
			return fmt.Errorf("pqp: hash join build: %w", err)
		}
		n := len(b.Sel)
		if err := pollSpan(op.ctx, op.rowIdx, n); err != nil {
			return err
		}
		op.rowIdx += n
		if op.cpu != nil {
			for _, rel := range b.Sel {
				op.cpu.Scalar(2)
				op.cpu.RandomRead(op.regionB, op.buildKey.Addr(int(b.Base)+int(rel)), size)
			}
		}
		if need := len(keys) + n; need > cap(keys) {
			grown := max(need, 2*cap(keys))
			bytes := int64(grown-cap(keys)) * bytesPerBuildRow
			if err := op.acct.Charge(bytes); err != nil {
				return err
			}
			scratch += bytes
			keys, pos = slices.Grow(keys, grown-len(keys)), slices.Grow(pos, grown-len(pos))
		}
		for lo := 0; lo < n; lo += aggBlock {
			m := min(aggBlock, n-lo)
			at := len(keys)
			block := keys[at : at+m]
			dead := op.one[0].deadBuf[:m]
			anyDead := joinKeys(&key, op.keyType, &b, lo, block, dead)
			for i, k := range block {
				if !anyDead || !dead[i] {
					keys = append(keys, k)
					pos = append(pos, b.Base+b.Sel[lo+i])
				}
			}
		}
	}
	op.buildRows = int64(len(keys))
	if len(keys) == 0 {
		return nil
	}
	return op.layout(keys, pos)
}

// layout inserts the drained keys into the key table, sized for all of
// them, and lays out each key id's build positions in CSR form: a counting
// pass, a prefix sum into starts, and a stable fill that keeps each key's
// positions in build-stream order. The table's allocations are charged
// before they are made. keys is overwritten with the rows' ids.
func (op *joinOp) layout(keys []uint64, pos []uint32) error {
	n := len(keys)
	if err := op.acct.Charge(keyTableBytes(1, n)); err != nil {
		return err
	}
	op.table = newKeyTable(1, n)
	for i, k := range keys {
		id, slot := op.table.find1(k)
		if id < 0 {
			id = op.table.insert(keys[i:i+1], slot)
		}
		keys[i] = uint64(id)
	}
	ids := op.table.size()
	if err := op.acct.Charge(4*int64(ids+1) + 4*int64(n)); err != nil {
		return err
	}
	starts := make([]uint32, ids+1)
	for _, id := range keys {
		starts[id+1]++
	}
	for id := range ids {
		starts[id+1] += starts[id]
	}
	positions := make([]uint32, n)
	for i, id := range keys {
		positions[starts[id]] = pos[i]
		starts[id]++
	}
	// The fill advanced each start to the next key's: shift them back.
	copy(starts[1:], starts[:ids])
	starts[0] = 0
	op.starts, op.positions = starts, positions
	return nil
}

// joinKeys loads the join-key words of entries [lo, lo+len(keys)) of in
// through c, normalized by scan.NormKeyBits, and sets dead[i] where the
// key is NULL or NaN: such a key equals nothing. It reports whether any
// entry is dead; when none is, dead is left as it was.
func joinKeys(c *sideCol, t expr.Type, in *Batch, lo int, keys []uint64, dead []bool) bool {
	c.load(in, lo, keys)
	anyDead := false
	if c.col.HasNulls() {
		c.loadNulls(in, lo, dead)
		anyDead = slices.Contains(dead, true)
	}
	if t.Float() {
		for i, r := range keys {
			if expr.IsNaNBits(t, r) {
				if !anyDead {
					clear(dead)
					anyDead = true
				}
				dead[i] = true
			}
			keys[i] = scan.NormKeyBits(t, r)
		}
	}
	return anyDead
}

// transferBloom fills a Bloom filter from the table's key words and, when
// it filters (see bloomFilters), injects it as the last step of the probe
// scan's chain: the probe's own, already selectivity-ordered predicates
// run first, and a probe with none gets a chain of this one step. A
// filter that does not filter is dropped and reported as skipped.
func (op *joinOp) transferBloom() error {
	bl := scan.NewBloom(op.keyType, op.table.size())
	if err := op.acct.Charge(bl.SizeBytes()); err != nil {
		return err
	}
	for _, k := range op.table.words {
		bl.Add(k)
	}
	if !op.bloomFilters(bl) {
		op.acct.Release(bl.SizeBytes())
		op.bloomSkipped = true
		return nil
	}
	op.bloomStats = &scan.BloomStats{}
	op.probe.chain = append(op.probe.chain, scan.Pred{
		Col: op.probeKey, Bloom: bl, Stats: op.bloomStats,
	})
	return nil
}

// bloomFilters tests bl on up to bloomSamples evenly spaced non-NULL,
// non-NaN probe-key values and reports whether fewer than 95 % pass.
func (op *joinOp) bloomFilters(bl *scan.Bloom) bool {
	n := op.probeKey.Len()
	m := min(n, bloomSamples)
	tested, passed := 0, 0
	for i := range m {
		p := i * n / m
		if op.probeKey.Null(p) {
			continue
		}
		raw := op.probeKey.Raw(p)
		if expr.IsNaNBits(op.keyType, raw) {
			continue
		}
		tested++
		if bl.Test(raw) {
			passed++
		}
	}
	return 20*passed < 19*tested
}

// setCores gives each of n cores its own probe scratch, before any window
// runs.
func (op *joinOp) setCores(n int) {
	if n <= len(op.scratch) {
		return
	}
	op.scratch = make([]joinScratch, n)
	for i := range op.scratch {
		op.scratch[i].charger.acct = op.acct
	}
}

// stepJoin is a fragment's join step: j's probe of window batch b on core,
// its time counted from start, when the window's scan began. Without a
// join the batch passes as it is.
func stepJoin(j *joinOp, core int, b Batch, start time.Time) (Batch, error) {
	if j == nil {
		return b, nil
	}
	b, err := j.step(core, b)
	if err == nil {
		j.stats.addSince(start)
	}
	return b, err
}

func (op *joinOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.empty {
		return Batch{}, EOS
	}
	in, err := op.probe.Next()
	if err != nil {
		return Batch{}, err
	}
	return op.step(0, in)
}

// step joins one probe batch on core: it resolves the batch's keys block by
// block, expands the matches into pairs, applies the residuals and emits
// the pair batch, whose vectors core reuses at its next step.
func (op *joinOp) step(core int, in Batch) (Batch, error) {
	if err := faultinject.Hit(faultinject.SiteJoinProbeBatch); err != nil {
		return Batch{}, fmt.Errorf("pqp: hash join probe: %w", err)
	}
	sc := &op.scratch[core]
	op.stats.noteIn(in)
	op.probeRows.Add(int64(in.Count))
	n := len(in.Sel)
	pairsP, pairsB := sc.pairsP[:0], sc.pairsB[:0]
	for lo := 0; lo < n; lo += aggBlock {
		m := min(aggBlock, n-lo)
		if err := pollSpan(op.ctx, sc.rowIdx, m); err != nil {
			return Batch{}, err
		}
		sc.rowIdx += m
		ids := sc.idBuf[:m]
		op.resolveProbe(sc, &in, lo, ids)
		if op.cpu != nil {
			op.chargeProbe(&in, lo, ids)
		}
		for i, id := range ids {
			if id < 0 {
				continue
			}
			rel := in.Sel[lo+i]
			for _, bpos := range op.positions[op.starts[id]:op.starts[id+1]] {
				pairsP = append(pairsP, rel)
				pairsB = append(pairsB, bpos)
			}
		}
	}
	sc.pairsP, sc.pairsB = pairsP, pairsB
	if len(op.residuals) > 0 && len(pairsP) > 0 {
		var err error
		pairsP, pairsB, err = op.applyResiduals(sc, in.Base, pairsP, pairsB)
		if err != nil {
			return Batch{}, err
		}
	}
	out := Batch{Base: in.Base, Sel: pairsP, BuildSel: pairsB, Count: len(pairsP)}
	if err := sc.charger.swap(int64(len(pairsP)) * 2 * bytesPerPosition); err != nil {
		return Batch{}, err
	}
	op.stats.noteOut(out)
	return out, nil
}

// resolveProbe sets ids to the build key ids of entries [lo, lo+len(ids))
// of in: -1 for no match, idDeadKey for a NULL or NaN key.
func (op *joinOp) resolveProbe(sc *joinScratch, in *Batch, lo int, ids []int32) {
	keys, dead := sc.keyBuf[:len(ids)], sc.deadBuf[:len(ids)]
	anyDead := joinKeys(&sideCol{col: op.probeKey}, op.keyType, in, lo, keys, dead)
	for i, k := range keys {
		if anyDead && dead[i] {
			ids[i] = idDeadKey
			continue
		}
		ids[i], _ = op.table.find1(k)
	}
}

// chargeProbe charges the machine model for entries [lo, lo+len(ids)) of
// in, row by row: the probe key's address computation and random read, and
// the match branch.
func (op *joinOp) chargeProbe(in *Batch, lo int, ids []int32) {
	size := op.probeKey.Type().Size()
	for i, id := range ids {
		op.cpu.Scalar(2)
		op.cpu.RandomRead(op.regionP, op.probeKey.Addr(int(in.Base)+int(in.Sel[lo+i])), size)
		if id != idDeadKey {
			op.cpu.Branch(0xA00+uint32(op.regionP), id >= 0)
		}
	}
}

// applyResiduals evaluates the residual ON comparisons over the candidate
// pairs: both sides' values are gathered into temporary row-aligned
// columns (real random reads) and the column-vs-column chain runs through
// the configured kernel — the same comparator family a fused scan uses.
func (op *joinOp) applyResiduals(sc *joinScratch, base uint32, pairsP, pairsB []uint32) ([]uint32, []uint32, error) {
	n := len(pairsP)
	ch := make(scan.Chain, len(op.residuals))
	for ri, r := range op.residuals {
		sizeP := r.probeCol.Type().Size()
		sizeB := r.buildCol.Type().Size()
		tmpP := column.New(op.space, fmt.Sprintf("join$p%d", ri), r.probeCol.Type(), n)
		tmpB := column.New(op.space, fmt.Sprintf("join$b%d", ri), r.buildCol.Type(), n)
		for i := 0; i < n; i++ {
			if err := pollCtx(op.ctx, sc.rowIdx); err != nil {
				return nil, nil, err
			}
			sc.rowIdx++
			ppos := int(base) + int(pairsP[i])
			bpos := int(pairsB[i])
			if op.cpu != nil {
				op.cpu.Scalar(4)
				op.cpu.RandomRead(op.regionG, r.probeCol.Addr(ppos), sizeP)
				op.cpu.RandomRead(op.regionG, r.buildCol.Addr(bpos), sizeB)
			}
			if r.probeCol.Null(ppos) {
				tmpP.SetNull(i)
			} else {
				tmpP.SetRaw(i, r.probeCol.Raw(ppos))
			}
			if r.buildCol.Null(bpos) {
				tmpB.SetNull(i)
			} else {
				tmpB.SetRaw(i, r.buildCol.Raw(bpos))
			}
		}
		ch[ri] = scan.Pred{Col: tmpP, Col2: tmpB, Op: r.op}
	}
	kern, err := op.kernBuild(ch)
	if err != nil {
		return nil, nil, fmt.Errorf("pqp: join residual chain: %w", err)
	}
	res := kern.Run(op.cpu, true)
	keepP := make([]uint32, 0, res.Count)
	keepB := make([]uint32, 0, res.Count)
	for _, i := range res.Positions {
		keepP = append(keepP, pairsP[i])
		keepB = append(keepB, pairsB[i])
	}
	return keepP, keepB, nil
}

// Close closes the probe side first, which joins any helper still running
// a probe step, before it drops the table the steps read.
func (op *joinOp) Close() error {
	var err error
	if op.probeOpened {
		err = op.probe.Close()
	}
	if !op.buildClosed {
		if berr := op.build.Close(); err == nil {
			err = berr
		}
		op.buildClosed = true
	}
	for i := range op.scratch {
		op.scratch[i].charger.done()
	}
	op.scratch, op.one = nil, [1]joinScratch{}
	op.table, op.starts, op.positions = keyTable{}, nil, nil
	return err
}
