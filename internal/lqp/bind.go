package lqp

import (
	"fmt"

	"fusedscan/internal/expr"
)

// Clone deep-copies the plan tree so a cached skeleton can be bound and
// executed without mutating the shared copy. The spine is linear; a Join
// node adds a build scan that is deep-copied as well. The *column.Table
// leaves are shared — registered tables are immutable.
func (p *Plan) Clone() *Plan {
	out := &Plan{
		Table:        p.Table,
		AppliedRules: append([]string(nil), p.AppliedRules...),
		Hint:         p.Hint,
		AccessPath:   p.AccessPath,
		NumParams:    p.NumParams,
	}
	out.Root = cloneNode(p.Root)
	return out
}

func cloneScan(s *Scan) *Scan {
	c := *s
	c.Preds = append([]expr.Predicate(nil), s.Preds...)
	c.Probes = append([]IndexProbe(nil), s.Probes...)
	return &c
}

func cloneNode(n Node) Node {
	switch t := n.(type) {
	case nil:
		return nil
	case *Scan:
		return cloneScan(t)
	case *EmptyResult:
		c := *t
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
		c.Input, c.Build = cloneScan(t.Input), cloneScan(t.Build)
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
// argument literal, parsed against the type of the predicate's column in
// its scan's table. args[i] binds $i+1. After a successful Bind the plan
// carries no parameter slots and is ready for translation. Bind mutates
// the plan — bind a Clone of a cached skeleton, never the skeleton itself.
func (p *Plan) Bind(args []string) error {
	if len(args) != p.NumParams {
		return fmt.Errorf("lqp: plan wants %d parameter(s), got %d", p.NumParams, len(args))
	}
	for _, s := range p.scans() {
		for i := range s.Preds {
			pred := &s.Preds[i]
			if pred.Kind != expr.PredCompare || pred.Param == 0 {
				continue
			}
			if pred.Param > len(args) {
				return fmt.Errorf("lqp: plan references $%d but only %d argument(s) were bound", pred.Param, len(args))
			}
			col, err := s.Table.Column(pred.Column)
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
		}
	}
	p.NumParams = 0
	return nil
}
