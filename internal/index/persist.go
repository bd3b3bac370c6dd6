// Index persistence: an index serializes as an ordinary storage-format
// table of two columns — "key" (the indexed column's type, entries in
// index order) and "pos" (uint32 row ids) — so it inherits the whole
// durability stack for free: per-block CRC32-C checksums, atomic
// snapshot publication, WAL-logged DDL, scrubbing and quarantine. The
// decode side re-validates the structural invariants (sortedness,
// position bounds, no NaN key) that a checksum cannot express, so a
// logically corrupt file quarantines the index instead of corrupting
// results.

package index

import (
	"fmt"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// Serialized column names inside an index snapshot.
const (
	keyColumn = "key"
	posColumn = "pos"
)

// EncodeTable renders the index as a storage-ready table named name.
func (ix *Index) EncodeTable(space *mach.AddrSpace, name string) (*column.Table, error) {
	t := column.NewTable(space, name)
	kc := column.New(space, keyColumn, ix.typ, len(ix.keys))
	for i, k := range ix.keys {
		kc.SetRaw(i, k)
	}
	pc := column.New(space, posColumn, expr.Uint32, len(ix.pos))
	for i, p := range ix.pos {
		pc.SetRaw(i, uint64(p))
	}
	if err := t.AddColumn(kc); err != nil {
		return nil, err
	}
	if err := t.AddColumn(pc); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeTable rebuilds an index from its serialized form, validating
// structure: the expected two columns, entry count within the table's
// row count, positions in bounds and unique, no NaN key, keys in the value
// order (expr.OrderKey) with duplicate keys position-ordered. rows is the
// indexed table's current row count; a snapshot that disagrees with it
// is stale and rejected (the caller quarantines the index and falls back
// to scan).
func DecodeTable(t *column.Table, table, col string, rows int) (*Index, error) {
	kc, err := t.Column(keyColumn)
	if err != nil {
		return nil, fmt.Errorf("index: snapshot for %s.%s: %w", table, col, err)
	}
	pc, err := t.Column(posColumn)
	if err != nil {
		return nil, fmt.Errorf("index: snapshot for %s.%s: %w", table, col, err)
	}
	if pc.Type() != expr.Uint32 {
		return nil, fmt.Errorf("index: snapshot for %s.%s: pos column is %s, want uint32", table, col, pc.Type())
	}
	n := kc.Len()
	if n > rows {
		return nil, fmt.Errorf("index: snapshot for %s.%s holds %d entries for a %d-row table", table, col, n, rows)
	}
	ix := &Index{
		table: table,
		col:   col,
		typ:   kc.Type(),
		rows:  rows,
		keys:  make([]uint64, n),
		pos:   make([]uint32, n),
	}
	seen := make([]bool, rows)
	for i := 0; i < n; i++ {
		k := kc.Raw(i)
		p := pc.Raw(i)
		if p >= uint64(rows) {
			return nil, fmt.Errorf("index: snapshot for %s.%s: entry %d position %d out of range [0, %d)", table, col, i, p, rows)
		}
		if seen[p] {
			return nil, fmt.Errorf("index: snapshot for %s.%s: duplicate position %d", table, col, p)
		}
		seen[p] = true
		ix.keys[i] = k
		ix.pos[i] = uint32(p)
		if expr.IsNaNBits(ix.typ, k) {
			return nil, fmt.Errorf("index: snapshot for %s.%s: entry %d holds a NaN key", table, col, i)
		}
		if i > 0 {
			prev, cur := expr.OrderKey(ix.typ, ix.keys[i-1]), expr.OrderKey(ix.typ, k)
			if prev > cur {
				return nil, fmt.Errorf("index: snapshot for %s.%s: keys out of order at entry %d", table, col, i)
			}
			if prev == cur && ix.pos[i-1] >= ix.pos[i] {
				return nil, fmt.Errorf("index: snapshot for %s.%s: duplicate-key positions out of order at entry %d", table, col, i)
			}
		}
	}
	return ix, nil
}
