package lqp

import (
	"fmt"
	"slices"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
)

// Optimizer applies the rule-based rewrites of Figure 9. Column statistics
// come from the columns themselves ((*column.Column).Stats computes them once
// per column), so an Optimizer holds no per-table state and is safe for
// concurrent use: every rewrite mutates only the per-query plan.
type Optimizer struct {
	// indexes is the engine's index catalog for the access-path rule; nil
	// keeps every plan on the scan path. Set once via SetIndexCatalog
	// before the optimizer sees any plan.
	indexes IndexCatalog
}

// NewOptimizer returns an optimizer with no index catalog.
func NewOptimizer() *Optimizer { return &Optimizer{} }

// Optimize rewrites the plan in place: per-scan selectivity estimation,
// packed-predicate rewrites, unsatisfiable-predicate pruning and
// selectivity-based predicate reordering, then predicate transfer over a
// join or the access-path choice on a single table. The applied rules are
// recorded on the plan. Every rule rewrites one scan's conjunction, or
// swaps the scan's slot — or, when either side of a join is proven empty,
// the join's — for EmptyResult.
func (o *Optimizer) Optimize(p *Plan) {
	slot := spineSlot(p)
	switch t := (*slot).(type) {
	case *Scan:
		if e := o.optimizeScan(p, t); e != nil {
			*slot = e
			return
		}
		o.ChooseAccessPath(p)
	case *Join:
		build := o.optimizeScan(p, t.Build)
		o.markPredicateTransfer(p, t)
		probe := o.optimizeScan(p, t.Input)
		o.collapseEmptyJoin(p, slot, probe, build)
	}
}

// optimizeScan runs the single-scan rules over s's conjunction, in order —
// estimate, packed rewrite, contradiction and unsatisfiability pruning,
// reorder — and returns the EmptyResult that takes s's slot when a rule
// proves that no row satisfies it, else nil.
func (o *Optimizer) optimizeScan(p *Plan, s *Scan) *EmptyResult {
	if len(s.Preds) == 0 {
		return nil
	}
	sels := o.estimateSelectivities(p, s)
	sels, e := o.rewritePackedPredicates(p, s, sels)
	if e == nil {
		e = o.pruneContradictions(p, s)
	}
	if e == nil {
		e = o.pruneUnsatisfiable(p, s)
	}
	if e == nil {
		o.reorderPredicates(p, s, sels)
	}
	return e
}

// markPredicateTransfer tags the join for the Bloom-filter rewrite: the
// executor hashes the filtered build side's join keys into a Bloom
// filter and appends it to the probe scan's fused chain, so probe rows
// without a partner are rejected during the scan, before any join work.
// The executor drops the filter when sampled probe keys show it would
// reject almost none.
func (o *Optimizer) markPredicateTransfer(p *Plan, join *Join) {
	join.Transfer = true
	p.AppliedRules = append(p.AppliedRules, "PredicateTransferBloom")
}

// collapseEmptyJoin replaces the join in slot with EmptyResult when either
// side was proven empty (an inner join over an empty input produces
// nothing).
func (o *Optimizer) collapseEmptyJoin(p *Plan, slot *Node, probe, build *EmptyResult) {
	switch {
	case probe != nil:
		*slot = &EmptyResult{Reason: "join probe side is empty: " + probe.Reason}
	case build != nil:
		*slot = &EmptyResult{Reason: "join build side is empty: " + build.Reason}
	default:
		return
	}
	p.AppliedRules = append(p.AppliedRules, "CollapseEmptyJoin")
}

// prune records rule and returns the EmptyResult that replaces a scan
// whose conjunction no row satisfies: one such conjunct empties the whole
// scan, so none of its siblings is left to evaluate.
func prune(p *Plan, rule, reason string) *EmptyResult {
	p.AppliedRules = append(p.AppliedRules, rule)
	return &EmptyResult{Reason: reason}
}

// pruneContradictions detects conjunctions on one column that no value can
// satisfy — "a = 5 AND a = 6", "a < 3 AND a > 7", "a IS NULL AND a = 5" —
// and prunes the scan. It works on the conjunction before reordering, last
// conjunct first, interval-intersecting the comparison bounds per column.
func (o *Optimizer) pruneContradictions(p *Plan, s *Scan) *EmptyResult {
	if len(s.Preds) < 2 {
		return nil
	}
	type bounds struct {
		lo, hi         *expr.Value // nil = unbounded
		loOpen, hiOpen bool
		eq             *expr.Value
		isNull         bool
		notNull        bool
	}
	byCol := make(map[string]*bounds)
	contradiction := ""

	for i := len(s.Preds) - 1; i >= 0; i-- {
		pr := s.Preds[i]
		b := byCol[pr.Column]
		if b == nil {
			b = &bounds{}
			byCol[pr.Column] = b
		}
		switch pr.Kind {
		case expr.PredIsNull:
			b.isNull = true
		case expr.PredIsNotNull:
			b.notNull = true
		default:
			// A comparison also implies IS NOT NULL.
			b.notNull = true
			if pr.Param > 0 {
				// An unbound parameter has no value to intersect; the NOT
				// NULL implication above still holds for any binding.
				continue
			}
			v := pr.Value
			switch pr.Op {
			case expr.Eq:
				if b.eq != nil && !b.eq.Compare(expr.Eq, v) {
					contradiction = fmt.Sprintf("%s = %s AND %s = %s", pr.Column, b.eq, pr.Column, v)
				}
				b.eq = &v
			case expr.Lt, expr.Le:
				if b.hi == nil || v.Compare(expr.Lt, *b.hi) {
					b.hi, b.hiOpen = &v, pr.Op == expr.Lt
				} else if v.Compare(expr.Eq, *b.hi) && pr.Op == expr.Lt {
					b.hiOpen = true
				}
			case expr.Gt, expr.Ge:
				if b.lo == nil || v.Compare(expr.Gt, *b.lo) {
					b.lo, b.loOpen = &v, pr.Op == expr.Gt
				} else if v.Compare(expr.Eq, *b.lo) && pr.Op == expr.Gt {
					b.loOpen = true
				}
			}
		}
	}
	if contradiction == "" {
		for col, b := range byCol {
			switch {
			case b.isNull && b.notNull:
				contradiction = fmt.Sprintf("%s IS NULL AND %s IS NOT NULL (or a comparison)", col, col)
			case b.eq != nil && b.lo != nil && (b.eq.Compare(expr.Lt, *b.lo) || (b.loOpen && b.eq.Compare(expr.Eq, *b.lo))):
				contradiction = fmt.Sprintf("%s = %s conflicts with its lower bound %s", col, b.eq, *b.lo)
			case b.eq != nil && b.hi != nil && (b.eq.Compare(expr.Gt, *b.hi) || (b.hiOpen && b.eq.Compare(expr.Eq, *b.hi))):
				contradiction = fmt.Sprintf("%s = %s conflicts with its upper bound %s", col, b.eq, *b.hi)
			case b.lo != nil && b.hi != nil && (b.lo.Compare(expr.Gt, *b.hi) ||
				(b.lo.Compare(expr.Eq, *b.hi) && (b.loOpen || b.hiOpen))):
				contradiction = fmt.Sprintf("%s has empty range (%s, %s)", col, *b.lo, *b.hi)
			}
			if contradiction != "" {
				break
			}
		}
	}
	if contradiction == "" {
		return nil
	}
	return prune(p, "PruneContradictoryPredicates", "contradiction: "+contradiction)
}

// colStats returns the statistics of tbl's column name, or false when the
// table has no such column.
func (o *Optimizer) colStats(tbl *column.Table, name string) (*column.Stats, bool) {
	col, err := tbl.Column(name)
	if err != nil {
		return nil, false
	}
	return col.Stats(), true
}

// estimateSelectivities estimates each conjunct of s from column
// statistics. An unbound parameter has no value to estimate against: it
// keeps the neutral 1, so parameterized conjuncts preserve their source
// order under the (stable) selectivity reorder. (The engine optimizes only
// bound plans.)
func (o *Optimizer) estimateSelectivities(p *Plan, s *Scan) []float64 {
	sels := make([]float64, len(s.Preds))
	applied := false
	for i, pr := range s.Preds {
		sels[i] = o.predSel(s.Table, pr)
		applied = applied || pr.Kind != expr.PredCompare || pr.Param == 0
	}
	if applied {
		p.AppliedRules = append(p.AppliedRules, "EstimateSelectivities")
	}
	return sels
}

// rewritePackedPredicates rewrites compare predicates over bit-packed
// columns into packed order space (the generalization of the dictionary
// code-space rewrite): the literal is mapped through column.ValueKey and
// tested against the packed representation's exact key bounds — chunk
// metadata, no data touched. A literal provably outside every chunk's
// range prunes the scan; a predicate every valid row satisfies is dropped
// entirely (or weakened to IS NOT NULL when the column is nullable, because
// a comparison also filters NULLs). In-range predicates stay as they are —
// the scan kernels complete the rewrite per chunk in delta space
// (scan/packed.go), and the collapse outcome is observable in the plan's
// applied-rules trace. The rule looks at the last conjunct first and
// returns sels, the conjuncts' estimates, rewritten alongside them.
func (o *Optimizer) rewritePackedPredicates(p *Plan, s *Scan, sels []float64) ([]float64, *EmptyResult) {
	for i := len(s.Preds) - 1; i >= 0; i-- {
		pr := s.Preds[i]
		if pr.Kind != expr.PredCompare || pr.Param > 0 {
			continue
		}
		col, err := s.Table.Column(pr.Column)
		if err != nil || !col.IsPacked() || pr.Value.Type != col.Type() {
			continue
		}
		packed, _ := col.Packed()
		minKey, maxKey, any := packed.MinMaxKeys()
		if !any {
			// Every row is NULL (or the column is empty): no comparison
			// can match.
			return sels, prune(p, "PackedRewriteAlwaysFalse",
				fmt.Sprintf("packed rewrite: %s has no non-NULL rows", pr.Column))
		}
		c := column.ValueKey(col.Type(), pr.Value)
		alwaysFalse, alwaysTrue := packedCollapse(pr.Op, c, minKey, maxKey)
		switch {
		case alwaysFalse:
			return sels, prune(p, "PackedRewriteAlwaysFalse",
				fmt.Sprintf("packed rewrite: %s is outside the stored key range", pr))
		case alwaysTrue && col.HasNulls():
			// Keep only the comparison's implicit NULL filter.
			s.Preds[i] = expr.Predicate{Column: pr.Column, Kind: expr.PredIsNotNull}
			sels[i] = o.predSel(s.Table, s.Preds[i])
			p.AppliedRules = append(p.AppliedRules, "PackedRewriteAlwaysTrue")
		case alwaysTrue:
			// Drop the predicate: every row satisfies it.
			s.Preds = slices.Delete(s.Preds, i, i+1)
			sels = slices.Delete(sels, i, i+1)
			p.AppliedRules = append(p.AppliedRules, "PackedRewriteAlwaysTrue")
		}
	}
	return sels, nil
}

// packedCollapse reports whether "key(x) op c" is provably false or
// provably true for every valid row, given the exact key bounds
// [minKey, maxKey] of the packed column (unsigned key-space comparison).
func packedCollapse(op expr.CmpOp, c, minKey, maxKey uint64) (alwaysFalse, alwaysTrue bool) {
	switch op {
	case expr.Eq:
		return c < minKey || c > maxKey, minKey == maxKey && c == minKey
	case expr.Ne:
		return minKey == maxKey && c == minKey, c < minKey || c > maxKey
	case expr.Lt:
		return c <= minKey, c > maxKey
	case expr.Le:
		return c < minKey, c >= maxKey
	case expr.Gt:
		return c >= maxKey, c < minKey
	case expr.Ge:
		return c > maxKey, c <= minKey
	}
	return false, false
}

// pruneUnsatisfiable prunes the scan when one of its conjuncts cannot
// match any row (literal outside the column's [min, max]), looking at the
// last conjunct first.
func (o *Optimizer) pruneUnsatisfiable(p *Plan, s *Scan) *EmptyResult {
	for i := len(s.Preds) - 1; i >= 0; i-- {
		pred := s.Preds[i]
		if pred.Kind != expr.PredCompare {
			continue // NULL tests are never pruned by min/max bounds
		}
		if pred.Param > 0 {
			continue // an unbound parameter may bind to any value
		}
		st, ok := o.colStats(s.Table, pred.Column)
		if !ok || st.Rows == 0 {
			continue
		}
		if !st.HasCmp {
			// No row holds a comparable value: every row is NULL, which no
			// comparison matches (the packed rewrite's no-valid-rows
			// collapse, for plain columns), or NULL or NaN, which only <>
			// matches.
			reason := fmt.Sprintf("every row of %s is NULL", pred.Column)
			if st.NullFraction < 1 {
				if pred.Op == expr.Ne {
					continue
				}
				reason = fmt.Sprintf("every non-NULL row of %s is NaN", pred.Column)
			}
			return prune(p, "PruneUnsatisfiablePredicate", reason)
		}
		// Min and Max bound the non-NaN rows in the value order, which
		// agrees with the predicate's comparison on them; a NaN row
		// matches none of = < <= > >=, and a NaN literal is above Max.
		v, lo, hi := pred.Value.OrderKey(), st.Min.OrderKey(), st.Max.OrderKey()
		unsat := false
		switch pred.Op {
		case expr.Eq:
			unsat = v < lo || v > hi
		case expr.Lt:
			unsat = lo >= v
		case expr.Le:
			unsat = lo > v
		case expr.Gt:
			unsat = hi <= v
		case expr.Ge:
			unsat = hi < v
		}
		if unsat {
			return prune(p, "PruneUnsatisfiablePredicate",
				fmt.Sprintf("%s is outside [%s, %s]", pred, st.Min, st.Max))
		}
	}
	return nil
}

// reorderPredicates sorts the conjunction by ascending estimated
// selectivity, so the most selective predicate runs first — the paper's
// "predicates are evaluated as early as possible and in the most efficient
// order" — and records the conjunction's estimate on the scan. The sort
// is stable, preserving source order among equal estimates.
func (o *Optimizer) reorderPredicates(p *Plan, s *Scan, sels []float64) {
	moved := false
	for i := 1; i < len(sels); i++ {
		for j := i; j > 0 && sels[j-1] > sels[j]; j-- {
			sels[j-1], sels[j] = sels[j], sels[j-1]
			s.Preds[j-1], s.Preds[j] = s.Preds[j], s.Preds[j-1]
			moved = true
		}
	}
	if moved {
		p.AppliedRules = append(p.AppliedRules, "ReorderPredicatesBySelectivity")
	}
	s.EstSel = 1
	for _, sel := range sels {
		s.EstSel *= sel
	}
}
