package lqp

import (
	"fmt"
	"sort"

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

// Optimize rewrites the plan in place: join predicate pushdown, per-side
// selectivity estimation, unsatisfiable-predicate pruning,
// selectivity-based predicate reordering, fused-chain detection and
// predicate transfer. The applied rules are recorded on the plan. Every
// predicate of an optimized plan is inside a scan leaf (a FusedChain or an
// IndexScan's residual), or its whole run was pruned to EmptyResult; the
// translator accepts no other predicate.
func (o *Optimizer) Optimize(p *Plan) {
	o.pushJoinPredicates(p)
	if join := findJoin(p); join != nil {
		// The build side is its own predicate spine over BuildTable; run
		// the single-table passes on it as a sub-plan.
		sub := &Plan{Root: join.Build, Table: join.BuildTable}
		o.optimizeSpine(sub)
		join.Build = sub.Root
		p.AppliedRules = append(p.AppliedRules, sub.AppliedRules...)
		o.markPredicateTransfer(p, join)
	}
	o.optimizeSpine(p)
	if join := findJoin(p); join != nil {
		o.collapseEmptyJoin(p, join)
	} else {
		o.ChooseAccessPath(p)
	}
	o.pushLimitHints(p)
}

// optimizeSpine runs the single-spine rewrite passes: after join
// predicate pushdown, both the main plan (whose spine continues through
// the Join into the probe side) and the build subtree are linear
// predicate chains over one stored table.
func (o *Optimizer) optimizeSpine(p *Plan) {
	o.estimateSelectivities(p)
	o.rewritePackedPredicates(p)
	o.pruneContradictions(p)
	o.pruneUnsatisfiable(p)
	o.reorderPredicates(p)
	o.fuseChains(p)
}

// findJoin returns the plan's Join node, or nil. Joins live on the spine
// (their probe side continues it), so a linear walk finds them.
func findJoin(p *Plan) *Join {
	for n := p.Root; n != nil; n = n.Child() {
		if j, ok := n.(*Join); ok {
			return j
		}
	}
	return nil
}

// pushJoinPredicates moves WHERE predicates sitting above the Join down
// to the side whose table they filter — the classic pushdown through an
// inner join. Build-side predicates land in the build subtree (shrinking
// the hash table and the transferred Bloom filter), probe-side
// predicates join the probe scan chain (where fuseChains will merge them
// into one fused scan).
func (o *Optimizer) pushJoinPredicates(p *Plan) {
	join := findJoin(p)
	if join == nil {
		return
	}
	moved := false
	var parent Node
	n := p.Root
	for n != nil && n != Node(join) {
		pred, ok := n.(*Predicate)
		if !ok {
			parent = n
			n = n.Child()
			continue
		}
		next := pred.Input
		setChild(p, parent, next)
		if pred.OnBuild {
			pred.OnBuild = false
			pred.Input = join.Build
			join.Build = pred
		} else {
			pred.Input = join.Input
			join.Input = pred
		}
		moved = true
		n = next
	}
	if moved {
		p.AppliedRules = append(p.AppliedRules, "PushPredicatesThroughJoin")
	}
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

// collapseEmptyJoin replaces the join with EmptyResult when either side
// was proven empty (an inner join over an empty input produces nothing).
func (o *Optimizer) collapseEmptyJoin(p *Plan, join *Join) {
	if e, ok := join.Input.(*EmptyResult); ok {
		replaceChild(p, join, &EmptyResult{Reason: "join probe side is empty: " + e.Reason})
		p.AppliedRules = append(p.AppliedRules, "CollapseEmptyJoin")
		return
	}
	if e, ok := join.Build.(*EmptyResult); ok {
		replaceChild(p, join, &EmptyResult{Reason: "join build side is empty: " + e.Reason})
		p.AppliedRules = append(p.AppliedRules, "CollapseEmptyJoin")
	}
}

// pushLimitHints annotates the plan below a Limit with how many rows can
// ever be delivered, so the batch-pipelined executor stops early: the
// Projection learns its materialization cap, and — when the projection
// reads the scan's output directly, i.e. no order-changing operator sits
// between them — the FusedChain learns it may stop scanning after N
// matches. Aggregates are never hinted (they need every qualifying row),
// and a Sort below the projection blocks the scan hint (the first N rows
// in sort order are not the first N in table order).
func (o *Optimizer) pushLimitHints(p *Plan) {
	lim, ok := p.Root.(*Limit)
	if !ok || lim.N <= 0 {
		return
	}
	proj, ok := lim.Input.(*Projection)
	if !ok {
		return
	}
	proj.MaxRows = lim.N
	applied := "PushDownLimitHint"
	switch t := proj.Input.(type) {
	case *FusedChain:
		t.StopAfter = lim.N
	case *IndexScan:
		t.StopAfter = lim.N
	}
	p.AppliedRules = append(p.AppliedRules, applied)
}

// pruneContradictions detects conjunctions on one column that no value can
// satisfy — "a = 5 AND a = 6", "a < 3 AND a > 7", "a IS NULL AND a = 5" —
// and replaces the predicate run with EmptyResult. It works on the run
// before reordering, interval-intersecting the comparison bounds per
// column.
func (o *Optimizer) pruneContradictions(p *Plan) {
	run, _ := predicateRun(p)
	if len(run) < 2 {
		return
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

	for _, pr := range run {
		b := byCol[pr.Pred.Column]
		if b == nil {
			b = &bounds{}
			byCol[pr.Pred.Column] = b
		}
		switch pr.Pred.Kind {
		case expr.PredIsNull:
			b.isNull = true
		case expr.PredIsNotNull:
			b.notNull = true
		default:
			// A comparison also implies IS NOT NULL.
			b.notNull = true
			if pr.Pred.Param > 0 {
				// An unbound parameter has no value to intersect; the NOT
				// NULL implication above still holds for any binding.
				continue
			}
			v := pr.Pred.Value
			switch pr.Pred.Op {
			case expr.Eq:
				if b.eq != nil && !b.eq.Compare(expr.Eq, v) {
					contradiction = fmt.Sprintf("%s = %s AND %s = %s", pr.Pred.Column, b.eq, pr.Pred.Column, v)
				}
				b.eq = &v
			case expr.Lt, expr.Le:
				if b.hi == nil || v.Compare(expr.Lt, *b.hi) {
					b.hi, b.hiOpen = &v, pr.Pred.Op == expr.Lt
				} else if v.Compare(expr.Eq, *b.hi) && pr.Pred.Op == expr.Lt {
					b.hiOpen = true
				}
			case expr.Gt, expr.Ge:
				if b.lo == nil || v.Compare(expr.Gt, *b.lo) {
					b.lo, b.loOpen = &v, pr.Pred.Op == expr.Gt
				} else if v.Compare(expr.Eq, *b.lo) && pr.Pred.Op == expr.Gt {
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
	if contradiction != "" {
		pruneRun(p, "PruneContradictoryPredicates", "contradiction: "+contradiction)
	}
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

// estimateSelectivities fills in EstSel on every predicate from sampled
// column statistics.
func (o *Optimizer) estimateSelectivities(p *Plan) {
	applied := false
	for n := p.Root; n != nil; n = n.Child() {
		pred, ok := n.(*Predicate)
		if !ok {
			continue
		}
		if st, ok := o.colStats(p.Table, pred.Pred.Column); ok {
			switch {
			case pred.Pred.Kind == expr.PredIsNull:
				pred.EstSel = st.NullFraction
			case pred.Pred.Kind == expr.PredIsNotNull:
				pred.EstSel = 1 - st.NullFraction
			case pred.Pred.Param > 0:
				// Unbound parameter: no value to estimate against. Keep the
				// neutral default so parameterized predicates preserve their
				// source order under the (stable) selectivity reorder. (The
				// engine optimizes only bound plans.)
				continue
			default:
				pred.EstSel = st.EstimateSelectivity(pred.Pred.Op, pred.Pred.Value)
			}
			applied = true
		}
	}
	if applied {
		p.AppliedRules = append(p.AppliedRules, "EstimateSelectivities")
	}
}

// rewritePackedPredicates rewrites compare predicates over bit-packed
// columns into packed order space (the generalization of the dictionary
// code-space rewrite): the literal is mapped through column.ValueKey and
// tested against the packed representation's exact key bounds — chunk
// metadata, no data touched. A literal provably outside every chunk's
// range collapses the predicate run to EmptyResult; a predicate every
// valid row satisfies is dropped entirely (or weakened to IS NOT NULL when
// the column is nullable, because a comparison also filters NULLs). In-range
// predicates stay as they are — the scan kernels complete the rewrite per
// chunk in delta space (scan/packed.go), and the collapse outcome is
// observable in the plan's applied-rules trace.
func (o *Optimizer) rewritePackedPredicates(p *Plan) {
	var parent Node
	n := p.Root
	for n != nil {
		pred, ok := n.(*Predicate)
		if !ok || pred.Pred.Kind != expr.PredCompare || pred.Pred.Param > 0 {
			parent = n
			n = n.Child()
			continue
		}
		col, err := p.Table.Column(pred.Pred.Column)
		if err != nil || !col.IsPacked() || pred.Pred.Value.Type != col.Type() {
			parent = n
			n = n.Child()
			continue
		}
		packed, _ := col.Packed()
		minKey, maxKey, any := packed.MinMaxKeys()
		if !any {
			// Every row is NULL (or the column is empty): no comparison
			// can match.
			pruneRun(p, "PackedRewriteAlwaysFalse",
				fmt.Sprintf("packed rewrite: %s has no non-NULL rows", pred.Pred.Column))
			return
		}
		c := column.ValueKey(col.Type(), pred.Pred.Value)
		alwaysFalse, alwaysTrue := packedCollapse(pred.Pred.Op, c, minKey, maxKey)
		switch {
		case alwaysFalse:
			pruneRun(p, "PackedRewriteAlwaysFalse",
				fmt.Sprintf("packed rewrite: %s is outside the stored key range", pred.Pred))
			return
		case alwaysTrue && col.HasNulls():
			// Keep only the comparison's implicit NULL filter.
			pred.Pred = expr.Predicate{Column: pred.Pred.Column, Kind: expr.PredIsNotNull}
			if st, ok := o.colStats(p.Table, pred.Pred.Column); ok {
				pred.EstSel = 1 - st.NullFraction
			}
			p.AppliedRules = append(p.AppliedRules, "PackedRewriteAlwaysTrue")
			parent = n
			n = n.Child()
		case alwaysTrue:
			// Unlink the predicate: every row satisfies it.
			setChild(p, parent, pred.Input)
			p.AppliedRules = append(p.AppliedRules, "PackedRewriteAlwaysTrue")
			n = pred.Input
		default:
			parent = n
			n = n.Child()
		}
	}
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

// pruneUnsatisfiable replaces the predicate run with EmptyResult when one
// of its predicates cannot match any row (literal outside the column's
// [min, max]).
func (o *Optimizer) pruneUnsatisfiable(p *Plan) {
	run, _ := predicateRun(p)
	for _, pred := range run {
		if pred.Pred.Kind != expr.PredCompare {
			continue // NULL tests are never pruned by min/max bounds
		}
		if pred.Pred.Param > 0 {
			continue // an unbound parameter may bind to any value
		}
		st, ok := o.colStats(p.Table, pred.Pred.Column)
		if !ok || st.Rows == 0 {
			continue
		}
		if !st.HasCmp {
			// No row holds a comparable value: every row is NULL, which no
			// comparison matches (the packed rewrite's no-valid-rows
			// collapse, for plain columns), or NULL or NaN, which only <>
			// matches.
			reason := fmt.Sprintf("every row of %s is NULL", pred.Pred.Column)
			if st.NullFraction < 1 {
				if pred.Pred.Op == expr.Ne {
					continue
				}
				reason = fmt.Sprintf("every non-NULL row of %s is NaN", pred.Pred.Column)
			}
			pruneRun(p, "PruneUnsatisfiablePredicate", reason)
			return
		}
		// Min and Max bound the non-NaN rows in the value order, which
		// agrees with the predicate's comparison on them; a NaN row
		// matches none of = < <= > >=, and a NaN literal is above Max.
		v, lo, hi := pred.Pred.Value.OrderKey(), st.Min.OrderKey(), st.Max.OrderKey()
		unsat := false
		switch pred.Pred.Op {
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
			pruneRun(p, "PruneUnsatisfiablePredicate",
				fmt.Sprintf("%s is outside [%s, %s]", pred.Pred, st.Min, st.Max))
			return
		}
	}
}

// reorderPredicates sorts each maximal run of stacked predicates by
// ascending estimated selectivity, so the most selective predicate runs
// first — the paper's "predicates are evaluated as early as possible and
// in the most efficient order". The sort is stable, preserving source
// order among equal estimates.
func (o *Optimizer) reorderPredicates(p *Plan) {
	run, parent := predicateRun(p)
	if len(run) < 2 {
		return
	}
	// run[0] is the outermost node, i.e. the predicate evaluated last; the
	// most selective predicate must end up innermost (evaluated first), so
	// sort descending in run order.
	ordered := make([]*Predicate, len(run))
	copy(ordered, run)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].EstSel > ordered[j].EstSel })

	changed := false
	for i := range run {
		if run[i] != ordered[i] {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	// Relink: parent -> ordered[0] -> ... -> ordered[k-1] -> base.
	base := run[len(run)-1].Input
	for i := 0; i < len(ordered)-1; i++ {
		ordered[i].Input = ordered[i+1]
	}
	ordered[len(ordered)-1].Input = base
	setChild(p, parent, ordered[0])
	p.AppliedRules = append(p.AppliedRules, "ReorderPredicatesBySelectivity")
}

// fuseChains replaces each maximal run of stacked predicates with a single
// FusedChain node — the tagging step that makes the LQP translator emit a
// Fused Table Scan.
func (o *Optimizer) fuseChains(p *Plan) {
	run, parent := predicateRun(p)
	if len(run) == 0 {
		return
	}
	fc := &FusedChain{Input: run[len(run)-1].Input, EstSel: 1}
	// The chain lists predicates in evaluation order: innermost (deepest σ,
	// applied first) leads, so it drives the sequential block scan.
	for i := len(run) - 1; i >= 0; i-- {
		fc.Preds = append(fc.Preds, run[i].Pred)
		fc.EstSel *= run[i].EstSel
	}
	setChild(p, parent, fc)
	p.AppliedRules = append(p.AppliedRules, "FuseConsecutiveScans")
}

// predicateRun returns the topmost maximal run of stacked Predicate nodes
// (outermost first) and the node whose child is the run's head (nil when
// the run starts at the root).
func predicateRun(p *Plan) ([]*Predicate, Node) {
	var parent Node
	for n := p.Root; n != nil; n = n.Child() {
		if pred, ok := n.(*Predicate); ok {
			run := []*Predicate{pred}
			for {
				next, ok := run[len(run)-1].Input.(*Predicate)
				if !ok {
					break
				}
				run = append(run, next)
			}
			return run, parent
		}
		parent = n
	}
	return nil, nil
}

// pruneRun replaces the predicate run, with the table under it, by
// EmptyResult and records rule: one conjunct that no row satisfies empties
// the whole run, so none of its siblings is left to evaluate.
func pruneRun(p *Plan, rule, reason string) {
	_, parent := predicateRun(p)
	setChild(p, parent, &EmptyResult{Reason: reason})
	p.AppliedRules = append(p.AppliedRules, rule)
}

// setChild replaces parent's child (or the plan root when parent is nil).
func setChild(p *Plan, parent, child Node) {
	if parent == nil {
		p.Root = child
		return
	}
	switch t := parent.(type) {
	case *Predicate:
		t.Input = child
	case *Projection:
		t.Input = child
	case *Limit:
		t.Input = child
	case *Sort:
		t.Input = child
	case *FusedChain:
		t.Input = child
	case *Join:
		t.Input = child
	case *GroupBy:
		t.Input = child
	default:
		panic(fmt.Sprintf("lqp: cannot set child of %T", parent))
	}
}

// replaceChild swaps the subtree rooted at old with repl.
func replaceChild(p *Plan, old, repl Node) {
	if p.Root == old {
		p.Root = repl
		return
	}
	for n := p.Root; n != nil; n = n.Child() {
		if n.Child() == old {
			setChild(p, n, repl)
			return
		}
	}
}
