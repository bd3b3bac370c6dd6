// Package lqp implements logical query plans and the rule-based optimizer
// of the paper's Figure 9: the SQL AST is translated into a tree of
// relational operators without implementation choices; optimizer rules then
// reorder predicates by estimated selectivity, prune unsatisfiable plans,
// and — the paper's key step — detect chains of consecutive predicates
// (σ...σ) and tag them for translation into a single Fused Table Scan
// (Figure 8).
package lqp

import (
	"fmt"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/index"
	"fusedscan/internal/sqlparse"
)

// Node is one logical operator.
type Node interface {
	Child() Node // nil for leaves
	String() string
}

// StoredTable is the leaf: a table in the catalog.
type StoredTable struct {
	Table *column.Table
}

// Child implements Node.
func (*StoredTable) Child() Node { return nil }

func (n *StoredTable) String() string {
	return fmt.Sprintf("StoredTable(%s)", n.Table.Name())
}

// Predicate is one σ: a comparison of a column against a literal, with the
// optimizer's selectivity estimate attached.
type Predicate struct {
	Input  Node
	Pred   expr.Predicate
	EstSel float64
	// OnBuild marks a predicate over the join's build table that still
	// sits on the main spine above the Join node; the
	// PushPredicatesThroughJoin rule moves it into the build subtree and
	// clears the flag. Always false in single-table plans.
	OnBuild bool
}

// Child implements Node.
func (n *Predicate) Child() Node { return n.Input }

func (n *Predicate) String() string {
	s := fmt.Sprintf("Predicate[%s] (est. sel. %.4g)", n.Pred, n.EstSel)
	if n.OnBuild {
		s += " (build side)"
	}
	return s
}

// FusedChain is the optimizer's tag for a run of consecutive predicates
// that the LQP translator must hand to the JIT compiler as one Fused Table
// Scan operator (the ꔖ node of Figure 8).
type FusedChain struct {
	Input Node
	Preds []expr.Predicate
	// StopAfter, when > 0, is the LIMIT pushdown hint: the scan may stop
	// producing once this many matches have been found (set only when no
	// order-changing operator sits between the scan and the limit).
	StopAfter int
	// EstSel is the optimizer's estimate of the fraction of rows surviving
	// the whole conjunction (product of the per-predicate estimates, i.e.
	// assuming independence). Physical scans use it to pre-size position
	// lists; 0 means "no estimate".
	EstSel float64
}

// Child implements Node.
func (n *FusedChain) Child() Node { return n.Input }

func (n *FusedChain) String() string {
	parts := make([]string, len(n.Preds))
	for i, p := range n.Preds {
		parts[i] = p.String()
	}
	s := fmt.Sprintf("FusedTableScan[%s]", strings.Join(parts, " AND "))
	if n.StopAfter > 0 {
		s += fmt.Sprintf(" (stop after %d)", n.StopAfter)
	}
	return s
}

// IndexProbe is one index lookup inside an IndexScan: the bound comparison
// it serves, the index that serves it, and the exact selectivity the cost
// model measured via Index.CountRange.
type IndexProbe struct {
	Index *index.Index
	Pred  expr.Predicate // bound PredCompare the probe answers
	// EstSel is exact, not estimated: CountRange(op, value) / rows.
	EstSel float64
}

// IndexScan is the secondary-index access path: a leaf node replacing
// FusedChain-over-StoredTable when the cost model (or an INDEX hint)
// chooses index probes over the fused scan. The executor probes each
// index, intersects the sorted position lists with the galloping kernels,
// and refines the surviving positions against the Residual predicates
// with the fused/native chain, window by window.
//
// The node carries live *index.Index pointers; that is safe because plans
// holding an IndexScan are optimized per execution from a bound clone of
// a cached skeleton — skeletons themselves are never optimized, so never
// contain an IndexScan — and every index DDL bumps the catalog epoch,
// which invalidates the plan cache.
type IndexScan struct {
	Table  *column.Table
	Probes []IndexProbe // intersected, most selective first
	// Residual is the predicate remainder in evaluation order (innermost
	// first, like FusedChain.Preds).
	Residual []expr.Predicate
	// StopAfter is the LIMIT pushdown hint (see FusedChain.StopAfter).
	StopAfter int
	// EstSel is the estimated fraction of rows surviving probes + residual.
	EstSel float64
	// CostIndex and CostScan are the cost model's two estimates, in
	// scanned-byte units; CostIndex < CostScan unless Forced.
	CostIndex, CostScan float64
	// Forced marks an /*+ INDEX(t col) */ hint overriding the cost choice.
	Forced bool
}

// Child implements Node.
func (*IndexScan) Child() Node { return nil }

func (n *IndexScan) String() string {
	cols := make([]string, len(n.Probes))
	parts := make([]string, 0, len(n.Probes)+len(n.Residual))
	for i, pr := range n.Probes {
		cols[i] = pr.Pred.Column
		parts = append(parts, pr.Pred.String())
	}
	for _, pr := range n.Residual {
		parts = append(parts, pr.String()+" (residual)")
	}
	s := fmt.Sprintf("IndexScan(%s)[%s] est=%.4g cost=%.4g vs scan=%.4g",
		strings.Join(cols, ","), strings.Join(parts, " AND "), n.EstSel, n.CostIndex, n.CostScan)
	if n.Forced {
		s += " (hint forced)"
	}
	if n.StopAfter > 0 {
		s += fmt.Sprintf(" (stop after %d)", n.StopAfter)
	}
	return s
}

// EmptyResult replaces a subtree proven to produce no rows (an
// unsatisfiable predicate, e.g. equality outside the column's min/max).
type EmptyResult struct {
	Reason string
}

// Child implements Node.
func (*EmptyResult) Child() Node { return nil }

func (n *EmptyResult) String() string { return fmt.Sprintf("EmptyResult(%s)", n.Reason) }

// Projection selects output columns. Star marks SELECT *, which Build
// expands into Columns and Refs (every probe column, then over a join every
// build column, qualified by table); it only labels the node.
type Projection struct {
	Input   Node
	Star    bool
	Columns []string
	// Refs carries the side-resolved form of Columns (same order).
	// Two-table plans need the side to locate each output column.
	Refs []ColRef
	// MaxRows, when > 0, is the LIMIT pushdown hint: at most this many
	// rows will ever be delivered, so materialization may stop there.
	MaxRows int
}

// Child implements Node.
func (n *Projection) Child() Node { return n.Input }

func (n *Projection) String() string {
	s := "Projection[*]"
	if !n.Star {
		s = fmt.Sprintf("Projection[%s]", strings.Join(n.Columns, ", "))
	}
	if n.MaxRows > 0 {
		s += fmt.Sprintf(" (limit hint %d)", n.MaxRows)
	}
	return s
}

// AggKind selects the aggregate function.
type AggKind uint8

// Supported aggregates.
const (
	AggCount AggKind = iota // COUNT(*)
	AggSum                  // SUM(col)
	AggMin                  // MIN(col)
	AggMax                  // MAX(col)
	AggAvg                  // AVG(col)
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "AGG?"
	}
}

// GroupItem is one aggregate term.
type GroupItem struct {
	Kind AggKind
	Col  ColRef // ignored for COUNT(*)
}

// Label renders the item as it appears in result headers.
func (it GroupItem) Label() string {
	if it.Kind == AggCount {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", strings.ToLower(it.Kind.String()), it.Col.Name)
}

// GroupBy is the one aggregation sink: it hashes each input row's key
// columns and accumulates the aggregates (COUNT(*), SUM, MIN, MAX, AVG)
// per group. With zero keys it is the plain aggregate — one group over
// every qualifying row, which is what a statement with aggregates and no
// GROUP BY builds, with or without a join. Output rows are emitted in
// ascending key order so results are deterministic.
type GroupBy struct {
	Input Node
	Keys  []ColRef
	Items []GroupItem
}

// Child implements Node.
func (n *GroupBy) Child() Node { return n.Input }

func (n *GroupBy) String() string {
	keys := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		keys[i] = k.Name
	}
	labels := make([]string, len(n.Items))
	for i, it := range n.Items {
		labels[i] = it.Label()
	}
	return FormatGroupBy(keys, labels)
}

// FormatGroupBy renders an aggregation sink in both plans: zero keys as
// "Aggregate[labels]", keyed sinks as "GroupBy[keys | labels]".
func FormatGroupBy(keys, labels []string) string {
	if len(keys) == 0 {
		return fmt.Sprintf("Aggregate[%s]", strings.Join(labels, ", "))
	}
	return fmt.Sprintf("GroupBy[%s | %s]", strings.Join(keys, ", "), strings.Join(labels, ", "))
}

// Sort orders the output by one column (ORDER BY col [DESC]).
type Sort struct {
	Input Node
	Col   string
	Desc  bool
}

// Child implements Node.
func (n *Sort) Child() Node { return n.Input }

func (n *Sort) String() string {
	dir := "ASC"
	if n.Desc {
		dir = "DESC"
	}
	return fmt.Sprintf("Sort[%s %s]", n.Col, dir)
}

// Limit caps the output row count.
type Limit struct {
	Input Node
	N     int
}

// Child implements Node.
func (n *Limit) Child() Node { return n.Input }

func (n *Limit) String() string { return fmt.Sprintf("Limit[%d]", n.N) }

// Plan is a logical plan plus the optimizer trace.
type Plan struct {
	Root  Node
	Table *column.Table
	// BuildTable is the join's build-side table; nil for single-table
	// plans. Table is always the driving (probe) table.
	BuildTable   *column.Table
	AppliedRules []string
	// Hint is the statement's access-path hint, nil when absent. It is part
	// of the plan-cache key (Normalize renders it into the shape).
	Hint *sqlparse.Hint
	// AccessPath is the ChooseAccessPath rule's human-readable decision —
	// "index(col) est=… cost=… vs scan=…" or "scan …" — surfaced by
	// EXPLAIN as "path=". Empty when the rule did not run (joins, no scan).
	AccessPath string
	// NumParams is the number of $n parameters the plan awaits. A plan with
	// NumParams > 0 is a skeleton: it must be Cloned and Bound with argument
	// values before translation (the plan cache stores such skeletons and
	// binds, then optimizes, a clone per execution).
	NumParams int
}

// Format renders the plan tree top-down, one operator per line. A Join's
// build subtree is rendered under a "Build:" heading before the probe
// side continues the spine.
func (p *Plan) Format() string {
	var sb strings.Builder
	writeTree(&sb, p.Root, 0)
	return sb.String()
}

func writeTree(sb *strings.Builder, n Node, depth int) {
	for ; n != nil; n = n.Child() {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		sb.WriteByte('\n')
		if j, ok := n.(*Join); ok {
			sb.WriteString(strings.Repeat("  ", depth+1))
			sb.WriteString("Build:\n")
			writeTree(sb, j.Build, depth+2)
		}
		depth++
	}
}

// Catalog resolves table names.
type Catalog interface {
	Table(name string) (*column.Table, error)
}

// buildPreds resolves one parsed comparison into its side-resolved
// predicate list (BETWEEN desugars into two conjuncts). The returned
// predicates carry bare column names; ref reports which table they
// filter.
func buildPreds(res *resolver, cmp sqlparse.Comparison) (ColRef, []expr.Predicate, error) {
	ref, col, err := res.resolve(cmp.Column)
	if err != nil {
		return ColRef{}, nil, err
	}
	if cmp.NullTest != expr.PredCompare {
		return ref, []expr.Predicate{{Column: ref.Col, Kind: cmp.NullTest}}, nil
	}
	pred := expr.Predicate{Column: ref.Col, Op: cmp.Op, Param: cmp.Param}
	if cmp.Param == 0 {
		pred.Value, err = expr.ParseValue(col.Type(), cmp.Literal)
		if err != nil {
			return ColRef{}, nil, fmt.Errorf("predicate on %q: %v", cmp.Column, err)
		}
	}
	preds := []expr.Predicate{pred}
	if cmp.IsBetween {
		// Desugar BETWEEN: the >= predicate above plus the <= upper bound.
		hiPred := expr.Predicate{Column: ref.Col, Op: expr.Le, Param: cmp.HiParam}
		if cmp.HiParam == 0 {
			hiPred.Value, err = expr.ParseValue(col.Type(), cmp.BetweenHi)
			if err != nil {
				return ColRef{}, nil, fmt.Errorf("BETWEEN upper bound on %q: %v", cmp.Column, err)
			}
		}
		preds = append(preds, hiPred)
	}
	return ref, preds, nil
}

// Build translates a parsed SELECT into an unoptimized logical plan,
// resolving column types and literal values against the catalog. For a
// JOIN statement the ON clause is split at build time: the first
// cross-table equality becomes the hash key, remaining cross-table
// comparisons become residuals, and column-vs-literal conditions stack
// directly on their owning side's scan. WHERE predicates initially sit
// above the Join; the optimizer's pushdown rule moves them to their side.
func Build(sel *sqlparse.Select, cat Catalog) (*Plan, error) {
	tbl, err := cat.Table(sel.Table)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Table: tbl, NumParams: sel.NumParams, Hint: sel.Hint}
	res := &resolver{probe: tbl, probeName: sel.Table}

	var probeNode Node = &StoredTable{Table: tbl}
	var node Node
	var join *Join
	if sel.Join != nil {
		if sel.Join.Table == sel.Table {
			return nil, fmt.Errorf("lqp: self-join of %q is not supported", sel.Table)
		}
		buildTbl, err := cat.Table(sel.Join.Table)
		if err != nil {
			return nil, err
		}
		plan.BuildTable = buildTbl
		res.build, res.buildName = buildTbl, sel.Join.Table
		var buildNode Node = &StoredTable{Table: buildTbl}
		join = &Join{BuildTable: buildTbl}
		for _, cmp := range sel.Join.On {
			if cmp.Column2 == "" {
				// Column-vs-literal ON condition: for an inner join this is
				// a plain filter on its owning side's scan.
				ref, preds, err := buildPreds(res, cmp)
				if err != nil {
					return nil, err
				}
				for _, pr := range preds {
					if ref.Build {
						buildNode = &Predicate{Input: buildNode, Pred: pr, EstSel: 1}
					} else {
						probeNode = &Predicate{Input: probeNode, Pred: pr, EstSel: 1}
					}
				}
				continue
			}
			lRef, lCol, err := res.resolve(cmp.Column)
			if err != nil {
				return nil, err
			}
			rRef, rCol, err := res.resolve(cmp.Column2)
			if err != nil {
				return nil, err
			}
			if lRef.Build == rRef.Build {
				return nil, fmt.Errorf("lqp: ON comparison %q must reference both tables", cmp.String())
			}
			if lCol.Type() != rCol.Type() {
				return nil, fmt.Errorf("lqp: ON comparison %q mixes %s and %s columns", cmp.String(), lCol.Type(), rCol.Type())
			}
			op, probeRef, buildRef := cmp.Op, lRef, rRef
			if lRef.Build {
				probeRef, buildRef, op = rRef, lRef, cmp.Op.Flip()
			}
			if op == expr.Eq && join.ProbeKey == "" {
				join.ProbeKey, join.BuildKey, join.KeyType = probeRef.Col, buildRef.Col, lCol.Type()
				join.KeyLabel = fmt.Sprintf("%s = %s", probeRef.Name, buildRef.Name)
				continue
			}
			join.Residuals = append(join.Residuals, JoinResidual{
				Probe: probeRef.Col, Build: buildRef.Col, Op: op,
				Label: fmt.Sprintf("%s %s %s", probeRef.Name, op, buildRef.Name),
			})
		}
		if join.ProbeKey == "" {
			return nil, fmt.Errorf("lqp: JOIN ... ON needs an equality between the two tables' columns")
		}
		join.Input, join.Build = probeNode, buildNode
		node = join
	} else {
		node = probeNode
	}

	for _, cmp := range sel.Where {
		ref, preds, err := buildPreds(res, cmp)
		if err != nil {
			return nil, err
		}
		// EstSel 1 is the neutral default; the optimizer's statistics rule
		// estimates the real value.
		for _, pr := range preds {
			node = &Predicate{Input: node, Pred: pr, EstSel: 1, OnBuild: ref.Build}
		}
	}

	if sel.OrderBy != "" {
		if join != nil {
			return nil, fmt.Errorf("lqp: ORDER BY over a join is not supported")
		}
		ref, _, err := res.resolve(sel.OrderBy)
		if err != nil {
			return nil, err
		}
		node = &Sort{Input: node, Col: ref.Col, Desc: sel.Desc}
	}

	switch {
	case len(sel.Aggs) > 0:
		g := &GroupBy{Input: node}
		// The parser guarantees the projected plain columns and the GROUP
		// BY list are the same set (empty without GROUP BY), so the keys are
		// taken in projection order (that is the output column order).
		for _, k := range sel.Columns {
			ref, _, err := res.resolve(k)
			if err != nil {
				return nil, err
			}
			for _, prev := range g.Keys {
				if prev.Build == ref.Build && prev.Col == ref.Col {
					return nil, fmt.Errorf("lqp: duplicate GROUP BY column %q", k)
				}
			}
			g.Keys = append(g.Keys, ref)
		}
		for _, term := range sel.Aggs {
			kind, err := aggKindOf(term.Func)
			if err != nil {
				return nil, err
			}
			item := GroupItem{Kind: kind}
			if kind != AggCount {
				ref, _, err := res.resolve(term.Col)
				if err != nil {
					return nil, err
				}
				item.Col = ref
			}
			g.Items = append(g.Items, item)
		}
		node = g
	case sel.Star:
		proj := &Projection{Input: node, Star: true}
		star := func(tbl *column.Table, build bool) {
			for _, col := range tbl.ColumnNames() {
				name := col
				if join != nil {
					// Qualified, so same-named columns stay distinguishable.
					name = tbl.Name() + "." + col
				}
				proj.Columns = append(proj.Columns, name)
				proj.Refs = append(proj.Refs, ColRef{Build: build, Col: col, Name: name})
			}
		}
		star(tbl, false)
		if join != nil {
			star(plan.BuildTable, true)
		}
		node = proj
	default:
		proj := &Projection{Input: node, Columns: sel.Columns}
		for _, c := range sel.Columns {
			ref, _, err := res.resolve(c)
			if err != nil {
				return nil, err
			}
			proj.Refs = append(proj.Refs, ref)
		}
		node = proj
	}
	if sel.Limit >= 0 {
		node = &Limit{Input: node, N: sel.Limit}
	}
	plan.Root = node
	return plan, nil
}
