package column

import (
	"fmt"
	"math"
	"sort"

	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// Table is a named collection of equal-length columns. Tables may be
// horizontally partitioned into chunks (the paper's footnote 1); chunking
// is represented by a row range so that scans can run chunk-at-a-time.
type Table struct {
	name   string
	n      int
	cols   []*Column
	byName map[string]int
	space  *mach.AddrSpace
}

// NewTable creates an empty table bound to an address space.
func NewTable(space *mach.AddrSpace, name string) *Table {
	return &Table{name: name, byName: make(map[string]int), space: space, n: -1}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the number of rows (0 for a table with no columns yet).
func (t *Table) Rows() int {
	if t.n < 0 {
		return 0
	}
	return t.n
}

// Space returns the address space columns of this table are allocated in.
func (t *Table) Space() *mach.AddrSpace { return t.space }

// AddColumn attaches a column. All columns must have the same length.
func (t *Table) AddColumn(c *Column) error {
	if _, dup := t.byName[c.Name()]; dup {
		return fmt.Errorf("table %s: duplicate column %q", t.name, c.Name())
	}
	if t.n >= 0 && c.Len() != t.n {
		return fmt.Errorf("table %s: column %q has %d rows, want %d", t.name, c.Name(), c.Len(), t.n)
	}
	t.n = c.Len()
	t.byName[c.Name()] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// MustAddColumn is AddColumn that panics on error (for generators/tests).
func (t *Table) MustAddColumn(c *Column) {
	if err := t.AddColumn(c); err != nil {
		panic(err)
	}
}

// PackColumn re-encodes the named integer column bit-packed in place
// (see Pack in packed.go). Call before the table is registered; packed
// columns are immutable.
func (t *Table) PackColumn(name string) error {
	i, ok := t.byName[name]
	if !ok {
		return fmt.Errorf("table %s: no column %q", t.name, name)
	}
	pc, err := Pack(t.cols[i])
	if err != nil {
		return fmt.Errorf("table %s: %w", t.name, err)
	}
	t.cols[i] = pc
	return nil
}

// Column returns the column with the given name, or an error.
func (t *Table) Column(name string) (*Column, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("table %s: no column %q", t.name, name)
	}
	return t.cols[i], nil
}

// Columns returns all columns in attachment order.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the column names in attachment order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name()
	}
	return names
}

// Chunk is a horizontal partition of a table: a [Begin, End) row range.
type Chunk struct {
	Begin, End int
}

// Rows returns the number of rows in the chunk.
func (ch Chunk) Rows() int { return ch.End - ch.Begin }

// Chunks partitions the table into chunks of at most chunkRows rows.
func (t *Table) Chunks(chunkRows int) []Chunk {
	if chunkRows <= 0 {
		panic("column: chunkRows must be positive")
	}
	n := t.Rows()
	var chunks []Chunk
	for b := 0; b < n; b += chunkRows {
		e := b + chunkRows
		if e > n {
			e = n
		}
		chunks = append(chunks, Chunk{Begin: b, End: e})
	}
	return chunks
}

// Stats summarizes a column for the optimizer's selectivity estimation:
// exact min/max and NULL fraction, plus a sampled value histogram.
type Stats struct {
	Type expr.Type
	Rows int
	// NullFraction is the exact fraction of NULL rows.
	NullFraction float64
	// Min and Max are the exact bounds, in the value order (expr.OrderKey),
	// over the non-NULL, non-NaN rows, as zone maps keep them. They must
	// be exact, not sampled: the optimizer proves predicates unsatisfiable
	// against them, and a strided sample can alias with periodic data and
	// miss whole value classes (e.g. stride 9765 over values i % 7 sees
	// only zeros). Defined only when HasCmp is set: some row is neither
	// NULL nor NaN.
	Min, Max expr.Value
	HasCmp   bool
	// SampleSorted holds the sampled non-NaN values (canonical Bits),
	// sorted in the value order, for selectivity estimation.
	// SampleNaN counts the sampled NaNs, kept out of the sorted part
	// because they have no place in that order. The sample holds at most
	// sampleCap values in all.
	SampleSorted []expr.Value
	SampleNaN    int
}

const sampleCap = 1024

// Stats returns the column's statistics, computing them on first use and
// caching them for the column's lifetime. Concurrency-safe. Registered
// columns are immutable, so the cache never goes stale; a table registered
// again under the same name brings new columns and new statistics.
func (c *Column) Stats() *Stats {
	c.statsOnce.Do(func() { c.stats = ComputeStats(c) })
	return &c.stats
}

// ComputeStats scans the column once (no machine-model accounting; this is
// the planner's offline statistics pass) and returns its statistics.
// Min/max and the NULL fraction come from the full scan; only the
// selectivity histogram is a strided sample.
func ComputeStats(c *Column) Stats {
	n := c.Len()
	st := Stats{Type: c.Type(), Rows: n}
	if n == 0 {
		return st
	}
	step := n / sampleCap
	if step == 0 {
		step = 1
	}
	if p, off := c.Packed(); p != nil && off == 0 && c.Len() == p.Rows() {
		// Packed fast path: the chunk metadata carries exact valid-row
		// min/max keys and valid counts, so the full-scan half of the
		// statistics is O(chunks) — no lane is decoded and no full-width
		// copy is materialized. Only the selectivity sample reads lanes,
		// and it decodes them one at a time.
		valid := 0
		if minKey, maxKey, ok := p.MinMaxKeys(); ok {
			st.Min, st.Max = c.rawValue(KeyToRaw(st.Type, minKey)), c.rawValue(KeyToRaw(st.Type, maxKey))
			st.HasCmp = true
		}
		for i := range p.Chunks() {
			valid += p.Chunks()[i].ValidRows
		}
		st.NullFraction = float64(n-valid) / float64(n)
		for i := 0; i < n && st.sampled() < sampleCap; i += step {
			if c.Null(i) {
				continue
			}
			st.addSample(c.Value(i))
		}
		st.sortSample()
		return st
	}
	nulls := 0
	var minKey, maxKey uint64
	for i := 0; i < n; i++ {
		if c.Null(i) {
			nulls++
			continue
		}
		raw := c.Raw(i)
		if i%step == 0 && st.sampled() < sampleCap {
			st.addSample(c.rawValue(raw))
		}
		if expr.IsNaNBits(st.Type, raw) {
			continue
		}
		switch k := expr.OrderKey(st.Type, raw); {
		case !st.HasCmp:
			st.Min, st.Max, minKey, maxKey, st.HasCmp = c.rawValue(raw), c.rawValue(raw), k, k, true
		case k < minKey:
			st.Min, minKey = c.rawValue(raw), k
		case k > maxKey:
			st.Max, maxKey = c.rawValue(raw), k
		}
	}
	st.sortSample()
	st.NullFraction = float64(nulls) / float64(n)
	return st
}

func (st *Stats) sampled() int { return len(st.SampleSorted) + st.SampleNaN }

func (st *Stats) addSample(v expr.Value) {
	if isNaN(v) {
		st.SampleNaN++
		return
	}
	st.SampleSorted = append(st.SampleSorted, v)
}

func (st *Stats) sortSample() {
	s := st.SampleSorted
	keys := make([]uint64, len(s))
	for i, v := range s {
		keys[i] = v.OrderKey()
	}
	st.SampleSorted = make([]expr.Value, len(s))
	for o, i := range expr.RadixOrder(keys, 1, len(s)) {
		st.SampleSorted[o] = s[i]
	}
}

func isNaN(v expr.Value) bool { return v.Type.Float() && math.IsNaN(v.Float()) }

// EstimateSelectivity estimates the fraction of rows satisfying "col op v"
// from the sample. It returns a value in [0, 1].
func (st *Stats) EstimateSelectivity(op expr.CmpOp, v expr.Value) float64 {
	total := st.sampled()
	if total == 0 {
		return 1.0
	}
	// Clamp away from exactly 0 so ordering decisions remain stable: an
	// unseen value may still exist in unsampled rows.
	sel := float64(st.countMatches(op, v)) / float64(total)
	if sel == 0 {
		sel = 0.5 / float64(total)
	}
	return sel
}

// countMatches counts the sampled values s with "s op v" — the count a
// linear walk with Value.Compare gives — by two binary searches over the
// sorted part, which the value order and Value.Compare agree on. A NaN,
// sampled or needle, satisfies only <>.
func (st *Stats) countMatches(op expr.CmpOp, v expr.Value) int {
	s := st.SampleSorted
	n := len(s)
	if isNaN(v) {
		if op == expr.Ne {
			return n + st.SampleNaN
		}
		return 0
	}
	k := v.OrderKey()
	lt := sort.Search(n, func(i int) bool { return s[i].OrderKey() >= k })
	le := lt + sort.Search(n-lt, func(i int) bool { return s[lt+i].OrderKey() > k })
	switch op {
	case expr.Eq:
		return le - lt
	case expr.Ne:
		return n - (le - lt) + st.SampleNaN
	case expr.Lt:
		return lt
	case expr.Le:
		return le
	case expr.Gt:
		return n - le
	case expr.Ge:
		return n - lt
	}
	panic(fmt.Sprintf("column: invalid cmp op %d", uint8(op)))
}
