package pqp

// The multi-table pipeline: a build/probe vectorized hash join speaking the
// same Volcano-with-vectors Open/Next/Close contract as the single-table
// operators. The aggregation sink and the projection above it read its
// pair batches through side-resolved columns (sideCol).
//
// The join drains its build side inside Open into a hash table keyed by
// normalized raw key bits (scan.NormKeyBits) mapping to build-table row
// positions — no payload is copied; everything downstream reads the
// registered build table's columns by position. When the optimizer marked
// predicate transfer, the filtered build side's distinct keys also populate
// a Bloom filter that Open injects into the probe side's scan chain before
// the probe scan ever opens, so probe rows without a possible partner die
// inside the scan kernel (Yang et al.'s predicate transfer). Residual ON
// predicates are evaluated per candidate-pair batch by gathering both
// sides' values into temporary row-aligned columns and running the
// column-vs-column comparator family through the same kernel flavor
// (native SWAR / emulated fused / SISD) the configuration selects.

import (
	"context"
	"fmt"
	"math"
	"slices"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/govern"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// bytesPerHashEntry is the hash-join memory-accounting estimate: one
// hash-table entry holds a 4-byte position inside a bucket slice plus
// amortized map overhead (key, bucket header, padding).
const bytesPerHashEntry = 48

// joinResidual is one bound residual ON comparison (probe OP build).
type joinResidual struct {
	probeCol *column.Column
	buildCol *column.Column
	op       expr.CmpOp
}

// joinOp is the inner hash equi-join. Open drains the build side into the
// hash table (and Bloom filter); Next pulls probe batches, looks up
// candidate pairs and filters them through the residual comparators,
// emitting pair batches (Sel = probe-relative, BuildSel = build-absolute).
type joinOp struct {
	probe positionStream
	build positionStream
	// probeScan, when non-nil, is the probe-side scan whose chain receives
	// the Bloom prefilter at Open (before the scan opens). Nil when the
	// probe side is not a chain scan; the filter then runs inside the join
	// loop instead.
	probeScan *scanOp
	// probeChain is probeScan's own chain; each Open rebuilds the scan's
	// chain from it, so reruns of the plan add one Bloom step, not one per
	// run.
	probeChain scan.Chain
	probeKey   *column.Column
	buildKey   *column.Column
	keyType    expr.Type
	residuals  []joinResidual
	transfer   bool
	// kernBuild constructs the kernel that evaluates residual
	// column-vs-column chains over the gathered pair columns.
	kernBuild func(scan.Chain) (scan.Kernel, error)
	space     *mach.AddrSpace
	label     string

	ctx         context.Context
	cpu         *mach.CPU
	regionB     int
	regionP     int
	regionG     int
	ht          map[uint64][]uint32
	bloom       *scan.Bloom
	bloomStats  *scan.BloomStats
	scalarBloom bool
	buildRows   int64
	probeRows   int64
	probeOpened bool
	buildClosed bool
	empty       bool
	charger     batchCharger
	rowIdx      int
	stats       opStats
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
	st.ProbeRows = op.probeRows
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

// Open runs the entire build phase: drain the build child, assemble the
// hash table (charged against the query's memory budget), and when
// predicate transfer is on, build the Bloom filter and inject it into the
// probe scan's chain — all before the probe side opens.
func (op *joinOp) Open(ctx context.Context, cpu *mach.CPU) error {
	defer op.stats.timed()()
	op.ctx, op.cpu = ctx, cpu
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	op.ht = make(map[uint64][]uint32)
	op.buildRows, op.probeRows, op.rowIdx = 0, 0, 0
	op.probeOpened, op.buildClosed, op.empty, op.scalarBloom = false, false, false, false
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
		op.bloomStats = &scan.BloomStats{}
		bl := scan.NewBloom(op.keyType, len(op.ht))
		for k := range op.ht {
			bl.Add(k) // keys are already normalized; Add's NormKey is idempotent
		}
		if err := govern.Charge(ctx, bl.SizeBytes()); err != nil {
			return err
		}
		op.bloom = bl
		if op.probeScan != nil {
			// Inject the prefilter as the last chain stage: the probe's own
			// (cheaper, already selectivity-ordered) predicates run first,
			// and rows that survive them are membership-tested inside the
			// kernel before any hash-table work.
			op.probeScan.chain = append(slices.Clip(op.probeChain), scan.Pred{
				Col: op.probeKey, Bloom: bl, Stats: op.bloomStats,
			})
		} else {
			op.scalarBloom = true
		}
	}
	if err := op.probe.Open(ctx, cpu); err != nil {
		return err
	}
	op.probeOpened = true
	return nil
}

// drainBuild folds the whole build-side position stream into the hash
// table. NULL keys never join; NaN float keys equal nothing (including
// themselves) and are dropped too.
func (op *joinOp) drainBuild() error {
	size := op.buildKey.Type().Size()
	isFloat := op.keyType.Float()
	for {
		b, err := op.build.Next()
		if err == EOS {
			return nil
		}
		if err != nil {
			return err
		}
		if err := faultinject.Hit(faultinject.SiteJoinBuildAlloc); err != nil {
			return fmt.Errorf("pqp: hash join build: %w", err)
		}
		// Hash-table state is retained until the join closes: budget it
		// batch-at-a-time as it accrues, before allocating.
		if err := govern.Charge(op.ctx, int64(b.Count)*bytesPerHashEntry); err != nil {
			return err
		}
		for _, rel := range b.Sel {
			if err := pollCtx(op.ctx, op.rowIdx); err != nil {
				return err
			}
			op.rowIdx++
			pos := int(b.Base) + int(rel)
			op.cpu.Scalar(2)
			op.cpu.RandomRead(op.regionB, op.buildKey.Addr(pos), size)
			if op.buildKey.Null(pos) {
				continue
			}
			if isFloat && math.IsNaN(op.buildKey.Value(pos).Float()) {
				continue
			}
			k := scan.NormKeyBits(op.keyType, op.buildKey.Raw(pos))
			op.ht[k] = append(op.ht[k], uint32(pos))
			op.buildRows++
		}
	}
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
	if err := faultinject.Hit(faultinject.SiteJoinProbeBatch); err != nil {
		return Batch{}, fmt.Errorf("pqp: hash join probe: %w", err)
	}
	op.stats.noteIn(in)
	op.probeRows += int64(in.Count)
	size := op.probeKey.Type().Size()
	isFloat := op.keyType.Float()
	var pairsP, pairsB []uint32
	for _, rel := range in.Sel {
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return Batch{}, err
		}
		op.rowIdx++
		pos := int(in.Base) + int(rel)
		op.cpu.Scalar(2)
		op.cpu.RandomRead(op.regionP, op.probeKey.Addr(pos), size)
		if op.probeKey.Null(pos) {
			continue
		}
		if isFloat && math.IsNaN(op.probeKey.Value(pos).Float()) {
			continue
		}
		k := scan.NormKeyBits(op.keyType, op.probeKey.Raw(pos))
		if op.scalarBloom {
			// The probe side is not a chain scan, so the transferred filter
			// runs here — still ahead of the hash lookup and residuals.
			op.bloomStats.Checks.Add(1)
			op.cpu.Scalar(4)
			if !op.bloom.Test(k) {
				continue
			}
			op.bloomStats.Pass.Add(1)
		}
		matches := op.ht[k]
		op.cpu.Branch(0xA00+uint32(op.regionP), len(matches) > 0)
		for _, bpos := range matches {
			pairsP = append(pairsP, rel)
			pairsB = append(pairsB, bpos)
		}
	}
	if len(op.residuals) > 0 && len(pairsP) > 0 {
		pairsP, pairsB, err = op.applyResiduals(in.Base, pairsP, pairsB)
		if err != nil {
			return Batch{}, err
		}
	}
	out := Batch{Base: in.Base, Sel: pairsP, BuildSel: pairsB, Count: len(pairsP)}
	if err := op.charger.swap(int64(len(pairsP)) * 2 * bytesPerPosition); err != nil {
		return Batch{}, err
	}
	op.stats.noteOut(out)
	return out, nil
}

// applyResiduals evaluates the residual ON comparisons over the candidate
// pairs: both sides' values are gathered into temporary row-aligned
// columns (real random reads) and the column-vs-column chain runs through
// the configured kernel — the same comparator family a fused scan uses.
func (op *joinOp) applyResiduals(base uint32, pairsP, pairsB []uint32) ([]uint32, []uint32, error) {
	n := len(pairsP)
	ch := make(scan.Chain, len(op.residuals))
	for ri, r := range op.residuals {
		sizeP := r.probeCol.Type().Size()
		sizeB := r.buildCol.Type().Size()
		tmpP := column.New(op.space, fmt.Sprintf("join$p%d", ri), r.probeCol.Type(), n)
		tmpB := column.New(op.space, fmt.Sprintf("join$b%d", ri), r.buildCol.Type(), n)
		for i := 0; i < n; i++ {
			if err := pollCtx(op.ctx, op.rowIdx); err != nil {
				return nil, nil, err
			}
			op.rowIdx++
			ppos := int(base) + int(pairsP[i])
			bpos := int(pairsB[i])
			op.cpu.Scalar(4)
			op.cpu.RandomRead(op.regionG, r.probeCol.Addr(ppos), sizeP)
			op.cpu.RandomRead(op.regionG, r.buildCol.Addr(bpos), sizeB)
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

func (op *joinOp) Close() error {
	op.charger.done()
	op.ht = nil
	var err error
	if !op.buildClosed {
		err = op.build.Close()
		op.buildClosed = true
	}
	if op.probeOpened {
		if perr := op.probe.Close(); err == nil {
			err = perr
		}
	}
	return err
}
