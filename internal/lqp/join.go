package lqp

import (
	"fmt"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/sqlparse"
)

// ColRef is a column reference resolved against a (possibly two-table)
// plan: Build selects the join's build table, otherwise the driving
// (probe) table. Col is the bare column name within that table; Name
// preserves the reference as written for display.
type ColRef struct {
	Build bool
	Col   string
	Name  string
}

// JoinResidual is one non-key ON comparison, normalized so the probe
// column is on the left (the parser's spelling may be flipped). Residuals
// are evaluated per candidate pair after the hash match, as
// column-vs-column comparators in the scan kernels.
type JoinResidual struct {
	Probe string // bare probe-side column name
	Build string // bare build-side column name
	Op    expr.CmpOp
	Label string // as written, e.g. "a.u < b.v"
}

// Join is the inner hash equi-join of two scans. Child() returns the probe
// scan, so the plan spine runs root -> ... -> Join -> probe scan; the build
// scan hangs off the node as a second leaf that walks must visit
// explicitly. When the optimizer proves either side empty, EmptyResult
// takes the join's own slot.
type Join struct {
	Input *Scan // probe side (the driving table's scan)
	Build *Scan // build side (the joined table's scan)

	ProbeKey  string // bare key column on the probe table
	BuildKey  string // bare key column on the build table
	KeyType   expr.Type
	KeyLabel  string // as written, e.g. "a.k = b.k"
	Residuals []JoinResidual

	// Transfer marks the predicate-transfer rewrite: the executor builds a
	// Bloom filter from the filtered build side's keys and injects it as a
	// prefilter stage into the probe side's fused scan chain, unless a
	// sample of probe keys shows it would pass nearly every row.
	Transfer bool
}

// Child implements Node: the probe side continues the plan spine.
func (n *Join) Child() Node { return n.Input }

func (n *Join) String() string {
	var sb strings.Builder
	sb.WriteString("HashJoin[")
	sb.WriteString(n.KeyLabel)
	for _, r := range n.Residuals {
		sb.WriteString(" AND ")
		sb.WriteString(r.Label)
	}
	sb.WriteString("]")
	if n.Transfer {
		sb.WriteString(" (bloom transfer)")
	}
	return sb.String()
}

// resolver resolves (possibly qualified) column references against the
// plan's one or two tables.
type resolver struct {
	probe, build         *column.Table
	probeName, buildName string
}

func (r *resolver) resolve(name string) (ColRef, *column.Column, error) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		tblName, colName := name[:i], name[i+1:]
		switch {
		case tblName == r.probeName:
			col, err := r.probe.Column(colName)
			if err != nil {
				return ColRef{}, nil, err
			}
			return ColRef{Col: colName, Name: name}, col, nil
		case r.build != nil && tblName == r.buildName:
			col, err := r.build.Column(colName)
			if err != nil {
				return ColRef{}, nil, err
			}
			return ColRef{Build: true, Col: colName, Name: name}, col, nil
		default:
			return ColRef{}, nil, fmt.Errorf("lqp: unknown table %q in %q", tblName, name)
		}
	}
	pc, perr := r.probe.Column(name)
	if r.build == nil {
		if perr != nil {
			return ColRef{}, nil, perr
		}
		return ColRef{Col: name, Name: name}, pc, nil
	}
	bc, berr := r.build.Column(name)
	switch {
	case perr == nil && berr == nil:
		return ColRef{}, nil, fmt.Errorf("lqp: column %q is ambiguous (in both %s and %s)", name, r.probeName, r.buildName)
	case perr == nil:
		return ColRef{Col: name, Name: name}, pc, nil
	case berr == nil:
		return ColRef{Build: true, Col: name, Name: name}, bc, nil
	default:
		return ColRef{}, nil, fmt.Errorf("lqp: column %q is in neither %s nor %s", name, r.probeName, r.buildName)
	}
}

// aggKindOf maps a parsed aggregate function to its plan kind.
func aggKindOf(f sqlparse.AggFunc) (AggKind, error) {
	switch f {
	case sqlparse.AggCount:
		return AggCount, nil
	case sqlparse.AggSum:
		return AggSum, nil
	case sqlparse.AggMin:
		return AggMin, nil
	case sqlparse.AggMax:
		return AggMax, nil
	case sqlparse.AggAvg:
		return AggAvg, nil
	default:
		return 0, fmt.Errorf("unsupported aggregate %q", f)
	}
}
