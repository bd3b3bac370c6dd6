// Secondary-index catalog: CREATE INDEX / DROP INDEX, the planner's
// IndexCatalog hook, quarantine for corrupt index snapshots, and the
// rebuild-on-re-register rule. Indexes are addressed by (table, column);
// at most one index exists per column. See internal/index for the data
// structure and DESIGN.md §16 for the cost model that decides when a
// query actually uses one.
package fusedscan

import (
	"fmt"
	"sort"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/index"
	"fusedscan/internal/sqlparse"
)

// IndexQuarantineError reports a secondary index taken out of service
// because its durable snapshot failed verification (checksum mismatch,
// structural corruption, or a stale snapshot that disagrees with its
// table). Only the index is affected: the table keeps serving and the
// planner silently answers on the fused-scan path. Re-creating the index,
// re-registering the table, or a later clean scrub lifts the quarantine.
type IndexQuarantineError struct {
	Table  string
	Column string
	Err    error
}

func (e *IndexQuarantineError) Error() string {
	return fmt.Sprintf("fusedscan: index on %s(%s) is quarantined: %v", e.Table, e.Column, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *IndexQuarantineError) Unwrap() error { return e.Err }

// LookupIndex implements the planner's lqp.IndexCatalog: it returns the
// live index on table.col, or nil when none exists (including when an
// index is quarantined — the planner falls back to the scan path without
// surfacing an error).
func (e *Engine) LookupIndex(table, col string) *index.Index {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.indexes[table][col]
}

// CreateIndex builds a sorted secondary index over table.col and
// registers it with the planner. The build is charged against a fresh
// per-query memory accountant when a memory budget is configured, so an
// over-budget build fails with ErrMemoryBudget before allocating. The
// catalog epoch is bumped — cached prepared plans replan and see the new
// access path.
//
// On a durable engine the index snapshot is written and a WAL record
// fsynced before CreateIndex returns: a nil error means the index
// survives any crash.
func (e *Engine) CreateIndex(table, col string) error {
	t, err := e.Table(table)
	if err != nil {
		return err
	}
	c, err := t.Column(col)
	if err != nil {
		return err
	}
	e.mu.RLock()
	_, dup := e.indexes[table][col]
	e.mu.RUnlock()
	if dup {
		return fmt.Errorf("fusedscan: index on %s(%s) already exists", table, col)
	}
	var charge func(int64) error
	if acct := e.gov.NewAccountant(); acct != nil {
		charge = acct.Charge
	}
	ix, err := index.Build(table, c, charge)
	if err != nil {
		return err
	}
	if e.dur != nil {
		return e.dur.createIndex(e, ix)
	}
	e.installIndex(ix)
	return nil
}

// DropIndex removes the index on table.col, reporting whether one was
// registered (or quarantined). On a durable engine the drop is WAL-logged
// and fsynced before it applies; a persistence failure changes nothing.
func (e *Engine) DropIndex(table, col string) (bool, error) {
	e.mu.RLock()
	_, live := e.indexes[table][col]
	_, quar := e.idxQuarantined[table][col]
	e.mu.RUnlock()
	if !live && !quar {
		return false, nil
	}
	if e.dur != nil {
		return e.dur.dropIndex(e, table, col)
	}
	e.removeIndex(table, col)
	return true, nil
}

// Indexes describes the live indexes on a table, sorted by column.
func (e *Engine) Indexes(table string) []index.Meta {
	e.mu.RLock()
	metas := make([]index.Meta, 0, len(e.indexes[table]))
	for _, ix := range e.indexes[table] {
		metas = append(metas, ix.Meta())
	}
	e.mu.RUnlock()
	sort.Slice(metas, func(i, j int) bool { return metas[i].Column < metas[j].Column })
	return metas
}

// QuarantinedIndexes returns the index quarantine set keyed "table.col".
// Empty on healthy engines.
func (e *Engine) QuarantinedIndexes() map[string]*IndexQuarantineError {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out map[string]*IndexQuarantineError
	for t, cols := range e.idxQuarantined {
		for c, qe := range cols {
			if out == nil {
				out = make(map[string]*IndexQuarantineError)
			}
			out[t+"."+c] = qe
		}
	}
	return out
}

// installIndex makes ix live: planner-visible, quarantine lifted, its
// definition remembered for rebuild-on-re-register, epoch bumped.
func (e *Engine) installIndex(ix *index.Index) {
	t, c := ix.Table(), ix.Column()
	e.mu.Lock()
	if e.indexes[t] == nil {
		e.indexes[t] = make(map[string]*index.Index)
	}
	e.indexes[t][c] = ix
	if q := e.idxQuarantined[t]; q != nil {
		delete(q, c)
		if len(q) == 0 {
			delete(e.idxQuarantined, t)
		}
	}
	if e.indexDefs[t] == nil {
		e.indexDefs[t] = make(map[string]bool)
	}
	e.indexDefs[t][c] = true
	e.mu.Unlock()
	e.bumpEpoch()
}

// removeIndex forgets the index on table.col entirely — live entry,
// quarantine entry and definition — and bumps the epoch.
func (e *Engine) removeIndex(table, col string) {
	e.mu.Lock()
	if e.indexDefs[table] != nil {
		delete(e.indexDefs[table], col)
		if len(e.indexDefs[table]) == 0 {
			delete(e.indexDefs, table)
		}
	}
	if e.indexes[table] != nil {
		delete(e.indexes[table], col)
		if len(e.indexes[table]) == 0 {
			delete(e.indexes, table)
		}
	}
	if e.idxQuarantined[table] != nil {
		delete(e.idxQuarantined[table], col)
		if len(e.idxQuarantined[table]) == 0 {
			delete(e.idxQuarantined, table)
		}
	}
	e.mu.Unlock()
	e.bumpEpoch()
}

// quarantineIndex takes the index on table.col out of service with a
// typed error. The table is untouched; the planner falls back to the
// scan path silently. The definition is kept so a re-register rebuilds.
func (e *Engine) quarantineIndex(table, col string, cause error) {
	qe := &IndexQuarantineError{Table: table, Column: col, Err: cause}
	e.mu.Lock()
	if e.indexes[table] != nil {
		delete(e.indexes[table], col)
		if len(e.indexes[table]) == 0 {
			delete(e.indexes, table)
		}
	}
	if e.idxQuarantined[table] == nil {
		e.idxQuarantined[table] = make(map[string]*IndexQuarantineError)
	}
	e.idxQuarantined[table][col] = qe
	if e.indexDefs[table] == nil {
		e.indexDefs[table] = make(map[string]bool)
	}
	e.indexDefs[table][col] = true
	e.mu.Unlock()
	e.bumpEpoch()
}

// rebuildIndexes re-creates every remembered index of t's name against
// the newly registered table — the "maintained on re-register" rule: a
// table replaced by drop + register keeps its indexes without operator
// action. A definition whose column no longer exists (or no longer
// builds) is forgotten. Returns the rebuilt indexes so the durable path
// can persist them.
func (e *Engine) rebuildIndexes(t *column.Table) []*index.Index {
	e.mu.RLock()
	cols := make([]string, 0, len(e.indexDefs[t.Name()]))
	for c := range e.indexDefs[t.Name()] {
		cols = append(cols, c)
	}
	e.mu.RUnlock()
	sort.Strings(cols)
	var out []*index.Index
	for _, cn := range cols {
		c, err := t.Column(cn)
		if err != nil {
			e.removeIndex(t.Name(), cn)
			continue
		}
		ix, berr := index.Build(t.Name(), c, nil)
		if berr != nil {
			e.quarantineIndex(t.Name(), cn, berr)
			continue
		}
		e.installIndex(ix)
		out = append(out, ix)
	}
	return out
}

// execDDL runs a parsed index DDL statement and renders its outcome as a
// one-row status result.
func (e *Engine) execDDL(stmt *sqlparse.Statement) (*Result, error) {
	switch {
	case stmt.CreateIndex != nil:
		ci := stmt.CreateIndex
		if err := e.CreateIndex(ci.Table, ci.Column); err != nil {
			return nil, err
		}
		return ddlResult(fmt.Sprintf("created index on %s(%s)", ci.Table, ci.Column)), nil
	case stmt.DropIndex != nil:
		di := stmt.DropIndex
		ok, err := e.DropIndex(di.Table, di.Column)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("fusedscan: no index on %s(%s)", di.Table, di.Column)
		}
		return ddlResult(fmt.Sprintf("dropped index on %s(%s)", di.Table, di.Column)), nil
	}
	return nil, fmt.Errorf("fusedscan: empty statement")
}

func ddlResult(msg string) *Result {
	return &Result{Columns: []string{"status"}, Rows: [][]string{{msg}}}
}

// clusterTable returns a copy of t physically sorted by col in the value
// order (expr.OrderKey; NULLs last, ties in original row order) — the
// CLUSTER BY table option. A clustered column's chunks carry tight
// zone-map ranges, so scans over cluster-key predicates prune most chunks
// instead of none.
func clusterTable(t *column.Table, col string) (*column.Table, error) {
	c, err := t.Column(col)
	if err != nil {
		return nil, err
	}
	for _, cc := range t.Columns() {
		if p, _ := cc.Packed(); p != nil {
			return nil, fmt.Errorf("fusedscan: CLUSTER BY must run before Pack (column %q is packed)", cc.Name())
		}
	}
	n := t.Rows()
	words := make([]uint64, 0, n*c.SortWords())
	for i := range n {
		words = c.AppendSortWords(words, i, false)
	}
	perm := expr.RadixOrder(words, c.SortWords(), n)
	out := column.NewTable(t.Space(), t.Name())
	for _, src := range t.Columns() {
		dst := column.New(t.Space(), src.Name(), src.Type(), n)
		for i, p := range perm {
			dst.SetRaw(i, src.Raw(int(p)))
			if src.Null(int(p)) {
				dst.SetNull(i)
			}
		}
		if err := out.AddColumn(dst); err != nil {
			return nil, err
		}
	}
	return out, nil
}
