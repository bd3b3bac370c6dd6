package lqp

import (
	"fmt"
	"math"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/index"
)

// IndexCatalog resolves secondary indexes for the access-path rule; the
// engine implements it over its index map.
type IndexCatalog interface {
	// LookupIndex returns the live index on table.col, or nil.
	LookupIndex(table, col string) *index.Index
}

// SetIndexCatalog wires the engine's index catalog into the optimizer.
// Call once at construction, before the optimizer sees any plan.
func (o *Optimizer) SetIndexCatalog(c IndexCatalog) { o.indexes = c }

// Access-path cost model. The unit is one sequentially scanned byte, so
// the scan side of the comparison is simply the bytes the fused chain
// touches; index-side work is converted into scanned-byte equivalents by
// the constants below (calibrated against the native scan throughput:
// probing and position bookkeeping are pointer-chasing and sorting, many
// times slower per row than a sequential SWAR scan).
const (
	// probeSearchCost is the byte-equivalent of one binary-search level.
	probeSearchCost = 64.0
	// indexRowCost is the byte-equivalent cost per position an index probe
	// materializes: the copy, the position re-sort and the galloping
	// intersection are all per-row costs on this list.
	indexRowCost = 32.0
	// accessPathWindowRows mirrors the executor's residual-refinement
	// granularity: surviving positions are refined by running the fused
	// chain over each 64Ki-row window that still holds a candidate.
	accessPathWindowRows = 1 << 16
	// IndexCrossoverSel is the dolt-lesson guardrail: above this probe
	// selectivity an index lookup is never chosen, whatever the cost
	// formula says — a low-selectivity index walk materializes and sorts a
	// near-table-sized position list and then touches most windows anyway,
	// which measurably loses to the fused scan. Only an explicit
	// /*+ INDEX(t col) */ hint bypasses the gate.
	IndexCrossoverSel = 0.05
)

// predSel estimates one predicate's selectivity from column statistics
// (1 when unknown or parameterized): the estimate the reorder rule sorts by,
// and the short-circuit discount in the scan cost.
func (o *Optimizer) predSel(tbl *column.Table, pr expr.Predicate) float64 {
	st, ok := o.colStats(tbl, pr.Column)
	if !ok {
		return 1
	}
	switch {
	case pr.Kind == expr.PredIsNull:
		return st.NullFraction
	case pr.Kind == expr.PredIsNotNull:
		return 1 - st.NullFraction
	case pr.Param > 0:
		return 1
	default:
		return st.EstimateSelectivity(pr.Op, pr.Value)
	}
}

// indexCand is one predicate an existing index could serve.
type indexCand struct {
	ix      *index.Index
	pred    expr.Predicate
	predIdx int // position in the scan's conjunction
	sel     float64
	k       int // exact matching rows, from CountRange
}

// ChooseAccessPath is the cost-based access-path rule: on a single-table
// plan's scan, it weighs probing secondary indexes (exact selectivity via
// CountRange, per-row lookup cost, windowed residual refinement) against
// the fused table scan (bytes scanned with a short-circuit discount) and,
// when the index side wins, turns the scan into the index path: the chosen
// conjuncts become its Probes, the rest its residual.
//
// Optimize runs the rule as its last single-table pass. It is exported
// for callers that optimize a parameterized plan — where predicates with
// unbound parameters are never index candidates — and re-cost its bound
// clones.
func (o *Optimizer) ChooseAccessPath(p *Plan) {
	if o.indexes == nil || p.AccessPath != "" {
		return
	}
	s, ok := (*spineSlot(p)).(*Scan)
	if !ok || s.Probes != nil || len(s.Preds) == 0 {
		return // a join, an emptied plan, no conjunct, or already chosen
	}
	if p.Hint != nil && p.Hint.NoIndex {
		o.decideScan(p, "scan (hint=no_index)")
		return
	}
	tbl := s.Table
	rows := tbl.Rows()
	if rows == 0 {
		return
	}

	var cands []indexCand
	for i, pr := range s.Preds {
		if pr.Kind != expr.PredCompare || pr.Param != 0 || !index.CanServe(pr.Op) {
			continue
		}
		ix := o.indexes.LookupIndex(tbl.Name(), pr.Column)
		if ix == nil || ix.Rows() != rows || ix.Type() != pr.Value.Type {
			continue
		}
		k, ok := ix.CountRange(pr.Op, pr.Value)
		if !ok {
			continue
		}
		cands = append(cands, indexCand{ix: ix, pred: pr, predIdx: i, sel: float64(k) / float64(rows), k: k})
	}
	if len(cands) == 0 {
		if p.NumParams == 0 {
			o.decideScan(p, "scan (no eligible index)")
		}
		return
	}

	// Selectivity-first probe order (Kim/Ileri/Madden): the most selective
	// probe leads, so the intersection narrows as early as possible.
	forced := false
	if h := p.Hint; h != nil && h.Table == tbl.Name() {
		var hinted []indexCand
		for _, c := range cands {
			if c.pred.Column == h.Column {
				hinted = append(hinted, c)
			}
		}
		if len(hinted) > 0 {
			cands, forced = hinted, true
		}
	}
	sortCandsBySel(cands)
	chosen := cands
	if !forced {
		chosen = nil
		for _, c := range cands {
			if c.sel <= IndexCrossoverSel {
				chosen = append(chosen, c)
			}
		}
		if len(chosen) == 0 {
			o.decideScan(p, fmt.Sprintf("scan (index on %s rejected: sel %.4g > crossover %.3g)",
				cands[0].pred.Column, cands[0].sel, IndexCrossoverSel))
			return
		}
	}

	isProbe := make(map[int]bool, len(chosen))
	costIndex, selIdx := 0.0, 1.0
	for _, c := range chosen {
		e := float64(c.ix.Entries())
		if e < 2 {
			e = 2
		}
		costIndex += math.Log2(e)*probeSearchCost + float64(c.k)*indexRowCost
		selIdx *= c.sel
		isProbe[c.predIdx] = true
	}

	// Residual refinement cost: the executor runs the fused chain only over
	// the 64Ki-row windows that still hold a candidate; with kEst candidates
	// spread over W windows the expected touched fraction is 1 - e^(-k/W).
	var residual []expr.Predicate
	kEst := selIdx * float64(rows)
	windows := math.Ceil(float64(rows) / accessPathWindowRows)
	frac := 1 - math.Exp(-kEst/windows)
	resSel, estSel := 1.0, selIdx
	for i, pr := range s.Preds {
		if isProbe[i] {
			continue
		}
		residual = append(residual, pr)
		col, err := tbl.Column(pr.Column)
		if err != nil {
			return
		}
		costIndex += frac * float64(col.ScanBytes()) * resSel
		sel := o.predSel(tbl, pr)
		resSel *= sel
		estSel *= sel
	}

	// Fused-scan cost: bytes touched per predicate column, discounted by
	// the short-circuit product of the predicates evaluated before it.
	costScan, prod := 0.0, 1.0
	for _, pr := range s.Preds {
		col, err := tbl.Column(pr.Column)
		if err != nil {
			return
		}
		costScan += float64(col.ScanBytes()) * prod
		prod *= o.predSel(tbl, pr)
	}

	cols := make([]string, len(chosen))
	for i, c := range chosen {
		cols[i] = c.pred.Column
	}
	if !forced && costIndex >= costScan {
		o.decideScan(p, fmt.Sprintf("scan cost=%.4g vs index(%s)=%.4g",
			costScan, strings.Join(cols, ","), costIndex))
		return
	}

	s.Preds, s.EstSel, s.CostIndex, s.CostScan, s.Forced = residual, estSel, costIndex, costScan, forced
	for _, c := range chosen {
		s.Probes = append(s.Probes, IndexProbe{Index: c.ix, Pred: c.pred, EstSel: c.sel})
	}
	p.AccessPath = fmt.Sprintf("index(%s) est=%.4g cost=%.4g vs scan=%.4g",
		strings.Join(cols, ","), estSel, costIndex, costScan)
	if forced {
		p.AccessPath += fmt.Sprintf(" hint=index(%s %s)", p.Hint.Table, p.Hint.Column)
	}
	p.AppliedRules = append(p.AppliedRules, "ChooseAccessPath("+p.AccessPath+")")
}

// decideScan records a scan-path decision without rewriting the plan.
func (o *Optimizer) decideScan(p *Plan, why string) {
	p.AccessPath = why
	p.AppliedRules = append(p.AppliedRules, "ChooseAccessPath("+why+")")
}

// sortCandsBySel orders candidates by ascending selectivity, ties by chain
// position (stable with respect to the optimizer's predicate order).
func sortCandsBySel(cands []indexCand) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if a.sel < b.sel || (a.sel == b.sel && a.predIdx <= b.predIdx) {
				break
			}
			cands[j-1], cands[j] = b, a
		}
	}
}
