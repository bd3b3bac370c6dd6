package column

import "fmt"

// NULL support. A column may carry a validity bitmap (1 = valid, 0 =
// NULL), allocated lazily on the first SetNull. WHERE-clause semantics
// follow SQL: a comparison with NULL is not true, so a NULL row never
// matches a predicate. Scans on nullable columns AND their comparison
// masks with the validity mask; the bitmap is real simulated memory, so
// its traffic is accounted.
//
// Views created with Slice share the parent's bitmap (with a row offset),
// like they share value bytes. Mark NULLs on the base column before
// slicing: EnsureNulls on a view allocates a view-local bitmap that the
// parent does not see.

// EnsureNulls allocates the validity bitmap (all rows valid) if absent.
func (c *Column) EnsureNulls() {
	if c.nulls != nil {
		return
	}
	words := (c.nullOff + c.n + 63) / 64
	c.nulls = make([]uint64, words)
	for i := range c.nulls {
		c.nulls[i] = ^uint64(0)
	}
	c.nullBase = c.space.Alloc(words * 8)
}

// HasNulls reports whether the column carries a validity bitmap.
func (c *Column) HasNulls() bool { return c.nulls != nil }

// SetNull marks row i as NULL (allocating the bitmap if needed).
func (c *Column) SetNull(i int) {
	c.checkRow(i)
	c.EnsureNulls()
	bit := c.nullOff + i
	c.nulls[bit/64] &^= 1 << uint(bit%64)
}

// SetValid marks row i as non-NULL.
func (c *Column) SetValid(i int) {
	c.checkRow(i)
	if c.nulls == nil {
		return
	}
	bit := c.nullOff + i
	c.nulls[bit/64] |= 1 << uint(bit%64)
}

// Null reports whether row i is NULL.
func (c *Column) Null(i int) bool {
	c.checkRow(i)
	if c.nulls == nil {
		return false
	}
	bit := c.nullOff + i
	return c.nulls[bit/64]&(1<<uint(bit%64)) == 0
}

// Validity returns the validity bitmap words and the bit index of row 0 in
// them: row i is valid when words[(off+i)/64] has bit (off+i)%64 set. Nil
// words means the column has no bitmap. Batch loops read the words
// directly instead of calling Null per row.
func (c *Column) Validity() (words []uint64, off int) { return c.nulls, c.nullOff }

// NullCount returns the number of NULL rows.
func (c *Column) NullCount() int {
	if c.nulls == nil {
		return 0
	}
	count := 0
	for i := 0; i < c.n; i++ {
		if c.Null(i) {
			count++
		}
	}
	return count
}

// ValidMask returns the validity bits for rows [i, i+cnt) as a mask with
// bit l set when row i+l is valid. cnt must be at most 64. Columns without
// a bitmap return all-ones.
func (c *Column) ValidMask(i, cnt int) uint64 {
	if cnt < 0 || cnt > 64 {
		panic(fmt.Sprintf("column %s: ValidMask count %d out of range", c.name, cnt))
	}
	if i < 0 || i+cnt > c.n {
		panic(fmt.Sprintf("column %s: ValidMask rows [%d, %d) out of range [0, %d)", c.name, i, i+cnt, c.n))
	}
	full := ^uint64(0)
	if cnt < 64 {
		full = 1<<uint(cnt) - 1
	}
	if c.nulls == nil {
		return full
	}
	bit := c.nullOff + i
	word, off := bit/64, uint(bit%64)
	v := c.nulls[word] >> off
	if off != 0 && word+1 < len(c.nulls) {
		v |= c.nulls[word+1] << (64 - off)
	}
	return v & full
}

// NullAddr returns the simulated address of the bitmap byte holding row
// i's validity bit (for memory accounting by the kernels).
func (c *Column) NullAddr(i int) uint64 {
	c.checkRow(i)
	if c.nulls == nil {
		panic(fmt.Sprintf("column %s: NullAddr without a bitmap", c.name))
	}
	return c.nullBase + uint64((c.nullOff+i)/8)
}

func (c *Column) checkRow(i int) {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("column %s: row %d out of range [0, %d)", c.name, i, c.n))
	}
}
