package pqp

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"fusedscan/internal/expr"
	"fusedscan/internal/govern"
)

// EOS is the sentinel error Operator.Next returns when the stream is
// exhausted. Like io.EOF it signals normal termination, not failure.
var EOS = errors.New("pqp: end of stream")

// defaultBatchRows is the pipeline's batch capacity: one scan chunk. The
// scan kernels produce chunk-relative position lists of at most this many
// rows, which flow through the operator tree without ever being rebased
// into a whole-table position list — peak memory is O(in-flight batches x
// batch capacity) instead of O(qualifying rows).
const defaultBatchRows = 1 << 16

// Batch is the unit of dataflow between pipelined operators: a window of a
// table's rows plus the selection vector of qualifying positions inside
// it. It doubles as the streaming form of QueryResult — operators above
// the projection carry materialized output as typed column vectors or, in
// a drive with a sink, as rows already rendered to text, and the aggregate
// sink delivers its fold in a final batch — so the driver can assemble the
// public result by concatenation alone.
type Batch struct {
	// Base is the table row id of the source chunk window's first row;
	// the absolute position of Sel[i] is Base + Sel[i].
	Base uint32
	// Sel is the selection vector: qualifying positions relative to Base,
	// ascending. Nil when the producer runs in count-only mode (Count is
	// still exact) and for batches that carry only rows or aggregates.
	// Downstream of a hash join an entry may repeat (one probe row matching
	// several build rows yields one pair per match).
	Sel []uint32
	// BuildSel, set only on batches a hash join emits, carries the matched
	// build-side row for each Sel entry — absolute build-table positions,
	// same length as Sel. Operators that consume join output read probe
	// columns at Base+Sel[i] and build columns at BuildSel[i].
	BuildSel []uint32
	// Count is the number of qualifying rows this batch represents. It can
	// exceed Rows() when the projection's materialization cap clips output.
	Count int
	// Cols carries materialized output (projection and grouped aggregation
	// onward) column-major: one typed vector per output column, all of the
	// same length. The producer may reuse the vectors' memory once its Next
	// is called again, so a consumer that keeps rows copies them first. A
	// projection window rendered in its fragment carries no Cols.
	Cols []Vec
	// Aggregates is set on the single final batch a zero-key aggregation
	// sink emits. AggNulls, when non-nil, marks the items that are NULL (an
	// aggregate over no non-NULL input).
	Aggregates []expr.Value
	AggNulls   []bool
	// text holds the rows a projection fragment rendered, in place of
	// Cols: the vectors they came from were the fragment core's scratch.
	// The driver hands them to its sink.
	text [][]string
}

// Rows returns how many materialized rows the batch carries.
func (b *Batch) Rows() int {
	switch {
	case b.text != nil:
		return len(b.text)
	case len(b.Cols) == 0:
		return 0
	}
	return len(b.Cols[0].Bits)
}

// truncate cuts the batch to its first n rows, in fresh headers: it never
// writes into the vectors or rows it was handed.
func (b *Batch) truncate(n int) {
	if b.text != nil {
		b.text = b.text[:n:n]
	}
	if len(b.Cols) > 0 {
		cols := make([]Vec, len(b.Cols))
		for i, v := range b.Cols {
			cols[i] = v.truncate(n)
		}
		b.Cols = cols
	}
}

// Vec is one typed output column of a batch. Bits[i] is row i's value in
// expr.Value.Bits encoding; Nulls, set only when the column can hold NULLs,
// marks the NULL rows (whose Bits are meaningless).
type Vec struct {
	Type  expr.Type
	Bits  []uint64
	Nulls []bool
}

// Value returns row i's value.
func (v *Vec) Value(i int) expr.Value { return expr.Value{Type: v.Type, Bits: v.Bits[i]} }

// Null reports whether row i is NULL.
func (v *Vec) Null(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// truncate cuts the vector to its first n rows.
func (v Vec) truncate(n int) Vec {
	v.Bits = v.Bits[:n]
	if v.Nulls != nil {
		v.Nulls = v.Nulls[:n]
	}
	return v
}

// OperatorStats is a point-in-time snapshot of one operator's runtime
// counters, for EXPLAIN ANALYZE-style output and regression tests. Times
// are inclusive of children (the root's WallNs covers the whole pipeline).
type OperatorStats struct {
	// Name is the operator's Describe string.
	Name string
	// RowsIn counts qualifying rows pulled from the child — for the scan
	// leaf it counts table rows consumed, so a short-circuited LIMIT scan
	// is visible as RowsIn far below the table size. RowsOut counts
	// qualifying rows handed to the parent.
	RowsIn  int64
	RowsOut int64
	// Batches counts batches emitted.
	Batches int64
	// WallNs is wall-clock time spent in Next, inclusive of children. In
	// a window's fragment (DESIGN §9) each operator adds the time from the
	// window's start to the end of its own step, so it stays inclusive of
	// the steps below it and, on several cores, sums them.
	WallNs int64
	// ChunksPruned counts scan chunks skipped by zone-map pruning (scan
	// leaves only; pruned chunks do not count toward RowsIn).
	ChunksPruned int64
	// Path names the execution path a scan leaf used: PathNative,
	// PathEmulated, PathScalar or PathScalarFallback. Empty for non-scan
	// operators.
	Path string
	// Depth is the operator's depth in the plan tree (root 0). Plans were
	// once pure spines where the slice index doubled as the depth; a hash
	// join's build subtree broke that, so the walk records it explicitly.
	Depth int
	// BuildRows / ProbeRows are hash-join counters: rows folded into the
	// build-side hash table, and probe-side rows that reached the join.
	BuildRows int64
	ProbeRows int64
	// BloomChecks / BloomPass count predicate-transfer prefilter
	// evaluations on the probe side (regardless of whether the filter ran
	// inside the fused scan chain or at the join): rows checked and rows
	// the filter let through.
	BloomChecks int64
	BloomPass   int64
	// BloomSkipped marks a join whose transferred Bloom filter was built
	// but not injected because it passed nearly every sampled probe key.
	BloomSkipped bool
	// Groups counts distinct groups a grouped-aggregation sink produced.
	Groups int64
	// Encoding names the storage encoding of a scan leaf's predicate
	// columns: EncodingPlain, EncodingPacked, or EncodingMixed when the
	// chain touches both. Empty for non-scan operators.
	Encoding string
	// BytesScanned totals the stored value bytes the scan leaf's
	// predicate columns covered across all non-pruned windows — packed
	// columns count their 64-bit word spans, plain columns rows x lane
	// size. Pruned chunks contribute nothing, so the packed-vs-plain
	// compression win and the zone-map win are both visible here.
	BytesScanned int64
	// IndexProbes / IndexRows are index-scan counters: secondary-index
	// probes executed, and positions those probes materialized before the
	// sorted-list intersection narrowed them down.
	IndexProbes int64
	IndexRows   int64
	// Cores is how many cores produced a scan leaf's windows: 1, or 1
	// plus the helpers a parallel scan started. 0 for other operators.
	Cores int
}

// Execution-path labels reported in scan OperatorStats.
const (
	PathNative         = "native"          // generated SWAR kernels, no machine model
	PathEmulated       = "emulated"        // JIT-compiled fused kernel on the emulated AVX path
	PathScalar         = "scalar"          // SISD short-circuit scan (UseFused off)
	PathScalarFallback = "scalar-fallback" // SISD after a JIT failure (degraded plan)
)

// Storage-encoding labels reported in scan OperatorStats.
const (
	EncodingPlain  = "plain"  // raw fixed-width lanes
	EncodingPacked = "packed" // frame-of-reference bit-packed chunks
	EncodingMixed  = "mixed"  // chain scans both plain and packed columns
)

func (s OperatorStats) String() string {
	out := fmt.Sprintf("%s  [in=%d out=%d batches=%d %s", s.Name, s.RowsIn, s.RowsOut, s.Batches, time.Duration(s.WallNs))
	if s.Path != "" {
		out += fmt.Sprintf(" path=%s", s.Path)
	}
	if s.Path != "" || s.ChunksPruned > 0 {
		out += fmt.Sprintf(" pruned=%d", s.ChunksPruned)
	}
	if s.Encoding != "" {
		out += fmt.Sprintf(" enc=%s bytes=%d", s.Encoding, s.BytesScanned)
	}
	if s.Cores > 1 {
		out += fmt.Sprintf(" cores=%d", s.Cores)
	}
	if s.BuildRows > 0 || s.ProbeRows > 0 {
		out += fmt.Sprintf(" build=%d probe=%d", s.BuildRows, s.ProbeRows)
	}
	if s.BloomChecks > 0 {
		out += fmt.Sprintf(" bloom=%d/%d", s.BloomPass, s.BloomChecks)
	}
	if s.BloomSkipped {
		out += " bloom=skipped"
	}
	if s.Groups > 0 {
		out += fmt.Sprintf(" groups=%d", s.Groups)
	}
	if s.IndexProbes > 0 {
		out += fmt.Sprintf(" probes=%d idxrows=%d", s.IndexProbes, s.IndexRows)
	}
	return out + "]"
}

// FormatStats renders per-operator counters for the whole tree, root
// first, indented by each entry's recorded tree depth.
func FormatStats(stats []OperatorStats) string {
	var sb strings.Builder
	for _, s := range stats {
		sb.WriteString(strings.Repeat("  ", s.Depth))
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// opStats is the embedded counter block every operator updates as batches
// flow through it. The counters are atomic: the operators of a window's
// fragment (scan, join probe, fold) update them from whichever core runs
// the window.
type opStats struct {
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
	batches atomic.Int64
	ns      atomic.Int64
}

// timed starts an inclusive wall-clock measurement of one Next call;
// invoke the returned func on exit.
func (s *opStats) timed() func() {
	start := time.Now()
	return func() { s.addSince(start) }
}

// addSince adds the time since start: a fragment's operators each add the
// time from the window's start to the end of their own step, so times stay
// inclusive of the steps below.
func (s *opStats) addSince(start time.Time) { s.ns.Add(time.Since(start).Nanoseconds()) }

func (s *opStats) noteIn(b Batch)  { s.rowsIn.Add(int64(b.Count)) }
func (s *opStats) noteOut(b Batch) { s.rowsOut.Add(int64(b.Count)); s.batches.Add(1) }

// noteScanned records table rows consumed by a scan leaf (its RowsIn).
func (s *opStats) noteScanned(n int) { s.rowsIn.Add(int64(n)) }

func (s *opStats) snapshot(name string) OperatorStats {
	return OperatorStats{Name: name, RowsIn: s.rowsIn.Load(), RowsOut: s.rowsOut.Load(), Batches: s.batches.Load(), WallNs: s.ns.Load()}
}

// batchCharger charges the query's memory accountant for transient batch
// memory: each operator keeps at most one batch in flight, so the charge
// for the previous batch is released when the next one is produced. Peak
// accounted memory for the pipeline is therefore O(operators x batch
// capacity), not O(qualifying rows). Retained memory (sort state, the rows
// a projection keeps for the result) is charged separately without
// release.
type batchCharger struct {
	acct     *govern.Accountant
	inflight int64
}

// swap releases the previous in-flight charge and charges n bytes for the
// batch about to be handed out.
func (c *batchCharger) swap(n int64) error {
	if c.acct == nil {
		return nil
	}
	c.acct.Release(c.inflight)
	c.inflight = 0
	if err := c.acct.Charge(n); err != nil {
		return err
	}
	c.inflight = n
	return nil
}

// done releases whatever is still in flight (call from Close).
func (c *batchCharger) done() {
	if c.acct != nil {
		c.acct.Release(c.inflight)
	}
	c.inflight = 0
}
