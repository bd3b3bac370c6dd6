// Package lqp implements logical query plans and the rule-based optimizer
// of the paper's Figure 9: the SQL AST is translated into a tree of
// relational operators without implementation choices; optimizer rules then
// reorder predicates by estimated selectivity and prune unsatisfiable plans.
// The paper's key step — finding chains of consecutive predicates (σ...σ)
// and tagging each for translation into a single Fused Table Scan (Figure
// 8) — holds by construction: a table and the whole conjunction over it are
// one Scan node from Build on.
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

// Scan is the one scan leaf: a read of Table filtered by the conjunction
// Preds, listed in evaluation order. Build appends each conjunct to the scan
// of the table it filters; the optimizer's rules rewrite Preds in place —
// estimating, dropping, rewriting and reordering conjuncts — or swap the
// scan's slot for EmptyResult, and the translator hands a scan with
// conjuncts to the JIT compiler as one Fused Table Scan (the ꔖ node of
// Figure 8). A consecutive σ chain is thus one node by construction.
//
// When the access-path rule chooses index probes over the fused scan,
// Probes holds them and Preds is the residual: the executor probes each
// index, intersects the sorted position lists with the galloping kernels,
// and refines the surviving positions against the residual with the
// fused/native chain, window by window. Such a scan carries live
// *index.Index pointers; that is safe because the engine chooses access
// paths per execution, on a bound clone of a cached skeleton, and every
// index DDL bumps the catalog epoch, which invalidates the plan cache.
type Scan struct {
	Table *column.Table
	Preds []expr.Predicate
	// EstSel is the optimizer's estimate of the fraction of rows surviving
	// the whole conjunction, probes included (the product of the
	// per-predicate estimates, i.e. assuming independence). Physical scans
	// use it to pre-size position lists; 0 means "no estimate".
	EstSel float64
	// Probes are the index path's lookups, intersected most selective
	// first; nil on the scan path.
	Probes []IndexProbe
	// CostIndex and CostScan are the cost model's two estimates for the
	// index path, in scanned-byte units; CostIndex < CostScan unless Forced.
	CostIndex, CostScan float64
	// Forced marks an /*+ INDEX(t col) */ hint overriding the cost choice.
	Forced bool
}

// Child implements Node.
func (*Scan) Child() Node { return nil }

// String renders the scan as the index path's IndexScan, as a fused scan
// (Format puts the table it reads on the line below), or as the bare table.
func (n *Scan) String() string {
	switch {
	case n.Probes != nil:
		cols := make([]string, len(n.Probes))
		parts := make([]string, 0, len(n.Probes)+len(n.Preds))
		for i, pr := range n.Probes {
			cols[i] = pr.Pred.Column
			parts = append(parts, pr.Pred.String())
		}
		for _, pr := range n.Preds {
			parts = append(parts, pr.String()+" (residual)")
		}
		s := fmt.Sprintf("IndexScan(%s)[%s] est=%.4g cost=%.4g vs scan=%.4g",
			strings.Join(cols, ","), strings.Join(parts, " AND "), n.EstSel, n.CostIndex, n.CostScan)
		if n.Forced {
			s += " (hint forced)"
		}
		return s
	case len(n.Preds) > 0:
		parts := make([]string, len(n.Preds))
		for i, p := range n.Preds {
			parts[i] = p.String()
		}
		return fmt.Sprintf("FusedTableScan[%s]", strings.Join(parts, " AND "))
	}
	return n.table()
}

func (n *Scan) table() string { return fmt.Sprintf("StoredTable(%s)", n.Table.Name()) }

// IndexProbe is one index lookup of an index-path Scan: the bound
// comparison it serves, the index that serves it, and the exact
// selectivity the cost model measured via Index.CountRange.
type IndexProbe struct {
	Index *index.Index
	Pred  expr.Predicate // bound PredCompare the probe answers
	// EstSel is exact, not estimated: CountRange(op, value) / rows.
	EstSel float64
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
}

// Child implements Node.
func (n *Projection) Child() Node { return n.Input }

func (n *Projection) String() string {
	if n.Star {
		return "Projection[*]"
	}
	return fmt.Sprintf("Projection[%s]", strings.Join(n.Columns, ", "))
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
	Root Node
	// Table is the driving table: the only one, or a join's probe side.
	Table        *column.Table
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
// build scan is rendered under a "Build:" heading before the probe side
// continues the spine; a fused scan renders over the table it reads.
func (p *Plan) Format() string {
	var sb strings.Builder
	writeTree(&sb, p.Root, 0)
	return sb.String()
}

func writeTree(sb *strings.Builder, n Node, depth int) {
	line := func(depth int, s string) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	for ; n != nil; n = n.Child() {
		line(depth, n.String())
		switch t := n.(type) {
		case *Join:
			line(depth+1, "Build:")
			writeTree(sb, t.Build, depth+2)
		case *Scan:
			if t.Probes == nil && len(t.Preds) > 0 {
				line(depth+1, t.table())
			}
		}
		depth++
	}
}

// spineSlot returns the field that holds the bottom of p's spine: the scan
// leaf, a Join, or an EmptyResult that replaced either.
func spineSlot(p *Plan) *Node {
	slot := &p.Root
	for {
		switch t := (*slot).(type) {
		case *Projection:
			slot = &t.Input
		case *Sort:
			slot = &t.Input
		case *Limit:
			slot = &t.Input
		case *GroupBy:
			slot = &t.Input
		default:
			return slot
		}
	}
}

// scans returns the plan's scan leaves: the spine's, or a join's build and
// probe scans.
func (p *Plan) scans() []*Scan {
	switch t := (*spineSlot(p)).(type) {
	case *Scan:
		return []*Scan{t}
	case *Join:
		return []*Scan{t.Build, t.Input}
	}
	return nil
}

// Catalog resolves table names.
type Catalog interface {
	Table(name string) (*column.Table, error)
}

// addConjunct resolves one parsed comparison and appends it to the scan of
// the table it filters — build when the column is on the join's build
// side, else probe. BETWEEN desugars into two conjuncts.
func addConjunct(res *resolver, cmp sqlparse.Comparison, probe, build *Scan) error {
	ref, col, err := res.resolve(cmp.Column)
	if err != nil {
		return err
	}
	s := probe
	if ref.Build {
		s = build
	}
	if cmp.NullTest != expr.PredCompare {
		s.Preds = append(s.Preds, expr.Predicate{Column: ref.Col, Kind: cmp.NullTest})
		return nil
	}
	pred := expr.Predicate{Column: ref.Col, Op: cmp.Op, Param: cmp.Param}
	if cmp.Param == 0 {
		pred.Value, err = expr.ParseValue(col.Type(), cmp.Literal)
		if err != nil {
			return fmt.Errorf("predicate on %q: %v", cmp.Column, err)
		}
	}
	s.Preds = append(s.Preds, pred)
	if cmp.IsBetween {
		// Desugar BETWEEN: the >= predicate above plus the <= upper bound.
		hiPred := expr.Predicate{Column: ref.Col, Op: expr.Le, Param: cmp.HiParam}
		if cmp.HiParam == 0 {
			hiPred.Value, err = expr.ParseValue(col.Type(), cmp.BetweenHi)
			if err != nil {
				return fmt.Errorf("BETWEEN upper bound on %q: %v", cmp.Column, err)
			}
		}
		s.Preds = append(s.Preds, hiPred)
	}
	return nil
}

// Build translates a parsed SELECT into an unoptimized logical plan,
// resolving column types and literal values against the catalog. Every
// column-vs-literal conjunct — of the ON clause, then of WHERE — joins the
// scan of the table it filters, in source order. For a JOIN statement the
// rest of the ON clause is split at build time: the first cross-table
// equality becomes the hash key, remaining cross-table comparisons become
// residuals.
func Build(sel *sqlparse.Select, cat Catalog) (*Plan, error) {
	tbl, err := cat.Table(sel.Table)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Table: tbl, NumParams: sel.NumParams, Hint: sel.Hint}
	res := &resolver{probe: tbl, probeName: sel.Table}

	probe := &Scan{Table: tbl}
	var node Node = probe
	var join *Join
	var build *Scan
	if sel.Join != nil {
		if sel.Join.Table == sel.Table {
			return nil, fmt.Errorf("lqp: self-join of %q is not supported", sel.Table)
		}
		buildTbl, err := cat.Table(sel.Join.Table)
		if err != nil {
			return nil, err
		}
		res.build, res.buildName = buildTbl, sel.Join.Table
		build = &Scan{Table: buildTbl}
		join = &Join{Input: probe, Build: build}
		for _, cmp := range sel.Join.On {
			if cmp.Column2 == "" {
				// Column-vs-literal ON condition: for an inner join this is
				// a plain filter on its owning side's scan.
				if err := addConjunct(res, cmp, probe, build); err != nil {
					return nil, err
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
		node = join
	}

	for _, cmp := range sel.Where {
		if err := addConjunct(res, cmp, probe, build); err != nil {
			return nil, err
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
			star(build.Table, true)
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
