package lqp

import (
	"fmt"

	"fusedscan/internal/expr"
)

// Clone deep-copies the plan tree so a cached skeleton can be bound and
// executed without mutating the shared copy. The spine is linear; a Join
// node adds a build subtree that is deep-copied as well. The
// *column.Table leaves are shared — registered tables are immutable.
func (p *Plan) Clone() *Plan {
	out := &Plan{
		Table:        p.Table,
		BuildTable:   p.BuildTable,
		AppliedRules: append([]string(nil), p.AppliedRules...),
		Hint:         p.Hint,
		AccessPath:   p.AccessPath,
		NumParams:    p.NumParams,
	}
	out.Root = cloneNode(p.Root)
	return out
}

func cloneNode(n Node) Node {
	switch t := n.(type) {
	case nil:
		return nil
	case *StoredTable:
		c := *t
		return &c
	case *EmptyResult:
		c := *t
		return &c
	case *Predicate:
		c := *t
		c.Input = cloneNode(t.Input)
		return &c
	case *FusedChain:
		c := *t
		c.Preds = append([]expr.Predicate(nil), t.Preds...)
		c.Input = cloneNode(t.Input)
		return &c
	case *IndexScan:
		c := *t
		c.Probes = append([]IndexProbe(nil), t.Probes...)
		c.Residual = append([]expr.Predicate(nil), t.Residual...)
		return &c
	case *Projection:
		c := *t
		c.Columns = append([]string(nil), t.Columns...)
		c.Input = cloneNode(t.Input)
		return &c
	case *Sort:
		c := *t
		c.Input = cloneNode(t.Input)
		return &c
	case *Limit:
		c := *t
		c.Input = cloneNode(t.Input)
		return &c
	case *Join:
		c := *t
		c.Residuals = append([]JoinResidual(nil), t.Residuals...)
		c.Input = cloneNode(t.Input)
		c.Build = cloneNode(t.Build)
		return &c
	case *GroupBy:
		c := *t
		c.Keys = append([]ColRef(nil), t.Keys...)
		c.Items = append([]GroupItem(nil), t.Items...)
		c.Input = cloneNode(t.Input)
		return &c
	default:
		panic(fmt.Sprintf("lqp: cannot clone %T", n))
	}
}

// Bind fills every $n parameter slot in the plan with the corresponding
// argument literal, parsed against the predicate column's type. args[i]
// binds $i+1. After a successful Bind the plan carries no parameter slots
// and is ready for translation. Bind mutates the plan — bind a Clone of a
// cached skeleton, never the skeleton itself.
func (p *Plan) Bind(args []string) error {
	if len(args) != p.NumParams {
		return fmt.Errorf("lqp: plan wants %d parameter(s), got %d", p.NumParams, len(args))
	}
	bind := func(pred *expr.Predicate, onBuild bool) error {
		if pred.Kind != expr.PredCompare || pred.Param == 0 {
			return nil
		}
		if pred.Param > len(args) {
			return fmt.Errorf("lqp: plan references $%d but only %d argument(s) were bound", pred.Param, len(args))
		}
		tbl := p.Table
		if onBuild {
			tbl = p.BuildTable
		}
		col, err := tbl.Column(pred.Column)
		if err != nil {
			return err
		}
		v, err := expr.ParseValue(col.Type(), args[pred.Param-1])
		if err != nil {
			// The slot may hold a literal of the statement text or a
			// caller argument; the column names both.
			return fmt.Errorf("predicate on %q: %v", pred.Column, err)
		}
		pred.Value = v
		pred.Param = 0
		return nil
	}
	// The walk descends the spine and, at a Join, the build subtree too;
	// inside the build subtree every predicate binds against BuildTable
	// (a not-yet-pushed-down build-side predicate on the spine is marked
	// OnBuild instead).
	var walk func(n Node, onBuild bool) error
	walk = func(n Node, onBuild bool) error {
		for ; n != nil; n = n.Child() {
			switch t := n.(type) {
			case *Predicate:
				if err := bind(&t.Pred, onBuild || t.OnBuild); err != nil {
					return err
				}
			case *FusedChain:
				for i := range t.Preds {
					if err := bind(&t.Preds[i], onBuild); err != nil {
						return err
					}
				}
			case *IndexScan:
				// Probe predicates are bound by construction; only the
				// residual may carry parameter slots (it never does today —
				// skeletons hold no IndexScan — but keep Bind total).
				for i := range t.Residual {
					if err := bind(&t.Residual[i], onBuild); err != nil {
						return err
					}
				}
			case *Join:
				if err := walk(t.Build, true); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(p.Root, false); err != nil {
		return err
	}
	p.NumParams = 0
	return nil
}
