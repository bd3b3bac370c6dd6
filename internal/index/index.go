// Package index implements sorted secondary indexes: the engine's second
// access path next to the fused table scan. An index over one column is a
// key-ordered run of (key, position) entries — keys are the column's
// stored bit patterns in the value order (expr.OrderKey), positions are
// row ids, duplicate keys keep their positions ascending — so a range
// probe is two binary searches plus a copy, and the probe result is a
// sorted position list that composes with other probes through the
// scan package's galloping intersection kernels (Lemire/Boytsov/Kurz)
// before the fused chain refines any residual predicates.
//
// Indexes are NULL-aware by exclusion: NULL rows (and NaN rows of float
// columns) carry no entry, which is exactly the comparison semantics the
// scan kernels implement — a NULL or NaN row satisfies no comparison
// predicate, and those are the only probes an index serves. IS NULL /
// IS NOT NULL and <> stay on the scan path.
//
// An Index is immutable after Build, so concurrent probes need no
// locking; the engine rebuilds the index when its table is re-registered.
package index

import (
	"fmt"
	"slices"
	"sort"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
)

// entryBytes is the accounted in-memory footprint of one index entry:
// an 8-byte key plus a 4-byte position. sortScratchBytes is what Build's
// sort holds beside it per entry while it runs: an 8-byte order word and
// two 4-byte ids.
const (
	entryBytes       = 12
	sortScratchBytes = 16
)

// Source is what Build indexes: any column-shaped value sequence. Both
// *column.Column and dictionary-encoded columns satisfy it.
type Source interface {
	Name() string
	Type() expr.Type
	Len() int
	Value(i int) expr.Value
}

// nuller is the optional validity interface of a Source (plain columns
// have it; dictionary columns are never NULL).
type nuller interface {
	Null(i int) bool
}

// Index is one immutable sorted secondary index over a single column.
type Index struct {
	table string
	col   string
	typ   expr.Type
	rows  int // rows in the indexed table, NULL/NaN rows included

	// keys[i] is the stored bit pattern (zero-extended, like Column.Raw)
	// of the value at row pos[i]. Entries are sorted in the value order
	// (expr.OrderKey), duplicate keys by ascending position.
	keys []uint64
	pos  []uint32
}

// Meta is the planner-facing description of an index: enough to cost a
// probe without touching the entries.
type Meta struct {
	Table   string
	Column  string
	Type    expr.Type
	Entries int   // non-NULL, non-NaN rows indexed
	Rows    int   // rows in the indexed table
	Bytes   int64 // in-memory footprint of the entry arrays
	// Covering reports that the index stores the key values themselves
	// (always true for this layout): a probe can answer value reads on
	// the indexed column without touching the table.
	Covering bool
}

// Build sorts a column into an index. charge, when non-nil, is invoked
// with the footprint of the entry arrays and the sort's scratch before
// allocation (the govern Accountant's Charge); a charge failure aborts the
// build with no allocation. The index.build.alloc fault site fires at the
// same point.
func Build(table string, src Source, charge func(int64) error) (*Index, error) {
	n := src.Len()
	if err := faultinject.Hit(faultinject.SiteIndexBuildAlloc); err != nil {
		return nil, fmt.Errorf("index: building %s.%s: %w", table, src.Name(), err)
	}
	if charge != nil {
		if err := charge(int64(n) * (entryBytes + sortScratchBytes)); err != nil {
			return nil, fmt.Errorf("index: building %s.%s: %w", table, src.Name(), err)
		}
	}
	ix := &Index{
		table: table,
		col:   src.Name(),
		typ:   src.Type(),
		rows:  n,
		keys:  make([]uint64, 0, n),
		pos:   make([]uint32, 0, n),
	}
	isNull := func(int) bool { return false }
	if nl, ok := src.(nuller); ok {
		isNull = nl.Null
	}
	for i := 0; i < n; i++ {
		if isNull(i) {
			continue
		}
		raw := column.StoredBits(src.Value(i))
		if expr.IsNaNBits(ix.typ, raw) {
			continue // NaN satisfies no comparison the index serves
		}
		ix.keys = append(ix.keys, raw)
		ix.pos = append(ix.pos, uint32(i))
	}
	ix.sortEntries()
	return ix, nil
}

// sortEntries orders the parallel entry arrays by value then position:
// a stable radix sort of the keys' order words over entries that Build
// appended in position order. The order words' array, reused for the
// sorted keys, and the sort's two id arrays are the scratch
// sortScratchBytes charges.
func (ix *Index) sortEntries() {
	words := make([]uint64, len(ix.keys))
	for i, k := range ix.keys {
		words[i] = expr.OrderKey(ix.typ, k)
	}
	ids := expr.RadixOrder(words, 1, len(words))
	for o, i := range ids {
		words[o] = ix.keys[i]
		ids[o] = int32(ix.pos[i])
	}
	ix.keys = words
	for o, p := range ids {
		ix.pos[o] = uint32(p)
	}
}

// Table returns the indexed table's name.
func (ix *Index) Table() string { return ix.table }

// Column returns the indexed column's name.
func (ix *Index) Column() string { return ix.col }

// Type returns the indexed column's value type.
func (ix *Index) Type() expr.Type { return ix.typ }

// Entries returns the number of (key, position) entries.
func (ix *Index) Entries() int { return len(ix.keys) }

// Rows returns the row count of the indexed table (entries plus the
// excluded NULL/NaN rows).
func (ix *Index) Rows() int { return ix.rows }

// Bytes returns the accounted in-memory footprint of the entry arrays.
func (ix *Index) Bytes() int64 { return int64(len(ix.keys)) * entryBytes }

// Meta returns the planner-facing description.
func (ix *Index) Meta() Meta {
	return Meta{
		Table:    ix.table,
		Column:   ix.col,
		Type:     ix.typ,
		Entries:  len(ix.keys),
		Rows:     ix.rows,
		Bytes:    ix.Bytes(),
		Covering: true,
	}
}

// CanServe reports whether op is answerable by a sorted range probe.
// <> is not: its result is nearly the whole table, which is exactly the
// access pattern the cost model exists to keep off the index.
func CanServe(op expr.CmpOp) bool {
	switch op {
	case expr.Eq, expr.Lt, expr.Le, expr.Gt, expr.Ge:
		return true
	}
	return false
}

// searchRange returns the half-open entry range [lo, hi) whose keys
// satisfy "key op needle". needleRaw is the literal's stored bit pattern;
// a NaN needle matches no comparison the index serves.
func (ix *Index) searchRange(op expr.CmpOp, needleRaw uint64) (lo, hi int) {
	if expr.IsNaNBits(ix.typ, needleRaw) {
		return 0, 0
	}
	n, needle := len(ix.keys), expr.OrderKey(ix.typ, needleRaw)
	// ge: first entry with key >= needle; gt: first entry with key > needle.
	ge := sort.Search(n, func(i int) bool { return expr.OrderKey(ix.typ, ix.keys[i]) >= needle })
	switch op {
	case expr.Lt:
		return 0, ge
	case expr.Ge:
		return ge, n
	}
	gt := ge + sort.Search(n-ge, func(i int) bool { return expr.OrderKey(ix.typ, ix.keys[ge+i]) > needle })
	switch op {
	case expr.Eq:
		return ge, gt
	case expr.Le:
		return 0, gt
	case expr.Gt:
		return gt, n
	}
	return 0, 0
}

// CountRange returns the exact number of rows satisfying "col op v" in
// O(log n), without materializing positions — the cost model's exact
// selectivity source for bound predicates. Unservable probes (wrong
// type, <>) report ok=false; a NaN needle counts 0.
func (ix *Index) CountRange(op expr.CmpOp, v expr.Value) (count int, ok bool) {
	if !CanServe(op) || v.Type != ix.typ {
		return 0, false
	}
	lo, hi := ix.searchRange(op, column.StoredBits(v))
	return hi - lo, true
}

// Probe materializes the ascending position list of rows satisfying
// "col op v". The entries in a key range are ordered by key first, so the
// copied positions are re-sorted — that sort is the probe's dominant cost
// and is charged per row in the planner's cost model. The index.probe
// fault site fires before any work.
func (ix *Index) Probe(op expr.CmpOp, v expr.Value) ([]uint32, error) {
	if err := faultinject.Hit(faultinject.SiteIndexProbe); err != nil {
		return nil, fmt.Errorf("index: probing %s.%s: %w", ix.table, ix.col, err)
	}
	if !CanServe(op) {
		return nil, fmt.Errorf("index: %s.%s cannot serve operator %s", ix.table, ix.col, op)
	}
	if v.Type != ix.typ {
		return nil, fmt.Errorf("index: probing %s %s.%s with %s literal", ix.typ, ix.table, ix.col, v.Type)
	}
	lo, hi := ix.searchRange(op, column.StoredBits(v))
	if lo >= hi {
		return nil, nil
	}
	out := make([]uint32, hi-lo)
	copy(out, ix.pos[lo:hi])
	// An equality probe lands inside one duplicate-key run, which is
	// already position-ordered; range probes span runs and must re-sort.
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	return out, nil
}
