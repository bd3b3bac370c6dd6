package pqp

import (
	"context"
	"fmt"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/govern"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// indexScanOp executes the optimizer's index access path: it probes each
// chosen secondary index once at Open, intersects the sorted position
// lists (galloping merge from the scan package), and then walks the
// surviving absolute positions window by window. Windows with no
// candidate are skipped outright — the point of the index path. Windows
// that do hold candidates are refined by running the residual predicate
// chain (the predicates no index serves) over just that window with the
// same kernel family the fused scan would use, and intersecting the
// kernel's window-relative positions with the candidates. The emitted
// batches are chunk-relative and ascending, indistinguishable downstream
// from a fused scan's output.
type indexScanOp struct {
	tbl    *column.Table
	probes []lqp.IndexProbe
	// residual is the refinement chain (empty when the probes cover every
	// predicate); kernels builds its kernel per window.
	residual scan.Chain
	kernels  *Family
	// estSel is the optimizer's whole-plan selectivity estimate, used to
	// pre-size the residual kernel's position list.
	estSel    float64
	batchRows int
	stopAfter int
	countOnly bool

	ctx context.Context
	cpu *mach.CPU
	// positions is the intersected candidate list: absolute table row ids,
	// ascending, fixed at Open. cursor indexes into it.
	positions []uint32
	cursor    int
	emitted   int
	region    int
	// retained holds the accountant charge for the materialized position
	// list (released at Close); charger cycles per-batch Sel memory.
	retained   batchCharger
	charger    batchCharger
	probeCount int64
	probeRows  int64
	bytes      int64
	stats      opStats
}

func (op *indexScanOp) Describe() string {
	cols := make([]string, len(op.probes))
	for i, pr := range op.probes {
		cols[i] = pr.Index.Column()
	}
	d := fmt.Sprintf("IndexScan[%s] on %s", strings.Join(cols, ","), op.tbl.Name())
	if len(op.residual) > 0 {
		d += fmt.Sprintf(" + residual %s", op.kernels.Name)
	}
	return d
}

func (op *indexScanOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	st.Path = op.kernels.Path
	st.IndexProbes = op.probeCount
	st.IndexRows = op.probeRows
	st.BytesScanned = op.bytes
	if len(op.residual) > 0 {
		st.Encoding = op.residual.Encoding()
	}
	return st
}

func (op *indexScanOp) setCountOnly(v bool) { op.countOnly = v }

func (op *indexScanOp) Open(ctx context.Context, cpu *mach.CPU) error {
	op.ctx, op.cpu = ctx, cpu
	op.cursor, op.emitted = 0, 0
	op.probeCount, op.probeRows, op.bytes = 0, 0, 0
	op.region = cpu.NewRandomRegion()
	acct := govern.AccountantFrom(ctx)
	op.retained = batchCharger{acct: acct}
	op.charger = batchCharger{acct: acct}

	// Probe phase: each index binary-searches its key run (log2 cost on
	// the machine model) and materializes an ascending absolute position
	// list; the lists then intersect smallest-first (the optimizer already
	// ordered the probes by ascending selectivity).
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
		cpu.RandomRead(op.region, 0, levels)
		cpu.Scalar(len(list))
		lists = append(lists, list)
	}
	switch len(lists) {
	case 0:
		op.positions = nil
	case 1:
		op.positions = lists[0]
	default:
		op.positions = scan.IntersectMany(lists...)
	}
	if err := op.retained.swap(int64(len(op.positions)) * bytesPerPosition); err != nil {
		return err
	}
	return ctx.Err()
}

func (op *indexScanOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.stopAfter > 0 && op.emitted >= op.stopAfter {
		return Batch{}, EOS
	}
	if err := op.ctx.Err(); err != nil {
		return Batch{}, err
	}
	if op.cursor >= len(op.positions) {
		return Batch{}, EOS
	}

	// The next window is the batch-aligned chunk holding the next
	// candidate; every candidate-free window in between is skipped without
	// touching a byte of the table.
	begin := int(op.positions[op.cursor]) / op.batchRows * op.batchRows
	end := begin + op.batchRows
	if n := op.tbl.Rows(); end > n {
		end = n
	}
	j := op.cursor
	for j < len(op.positions) && int(op.positions[j]) < end {
		j++
	}
	cand := make([]uint32, j-op.cursor)
	for i, p := range op.positions[op.cursor:j] {
		cand[i] = p - uint32(begin)
	}
	op.cursor = j
	op.stats.noteScanned(len(cand))

	sel := cand
	if len(op.residual) > 0 {
		sub := op.residual.Slice(begin, end)
		op.bytes += sub.ScanBytes()
		kern, err := buildWindow(op.kernels.Build, sub, op.estSel)
		if err != nil {
			return Batch{}, fmt.Errorf("pqp: index residual chunk [%d, %d): %w", begin, end, err)
		}
		// The kernel's positions are needed even in count-only mode: the
		// final count is the size of the intersection with the candidates.
		res := kern.Run(op.cpu, true)
		sel = scan.IntersectPositions(nil, cand, res.Positions)
	}

	b := Batch{Base: uint32(begin), Count: len(sel)}
	if !op.countOnly {
		if err := op.charger.swap(int64(len(sel)) * bytesPerPosition); err != nil {
			return Batch{}, err
		}
		b.Sel = sel
	}
	op.emitted += b.Count
	op.stats.noteOut(b)
	return b, nil
}

func (op *indexScanOp) Close() error {
	op.charger.done()
	op.retained.done()
	op.positions = nil
	return nil
}

// translateIndexScan lowers the optimizer's IndexScan leaf. The residual
// chain builds fused kernels directly (no JIT cache) so per-window slices
// compile cheaply; an empty residual needs no kernel at all.
func translateIndexScan(t *lqp.IndexScan, tbl *column.Table, opts Options, p *Plan) (Operator, error) {
	var residual scan.Chain
	if len(t.Residual) > 0 {
		ch, err := buildChain(tbl, t.Residual)
		if err != nil {
			return nil, err
		}
		residual = ch
	}
	f, err := p.kernels(residual, nil, opts)
	if err != nil {
		return nil, err
	}
	return &indexScanOp{
		tbl:       t.Table,
		probes:    t.Probes,
		residual:  residual,
		kernels:   f,
		estSel:    t.EstSel,
		batchRows: opts.batchRows(),
		stopAfter: t.StopAfter,
	}, nil
}
