package scan

import (
	"math/bits"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
)

// Packed-predicate evaluation (DESIGN.md §15): a "column OP literal"
// predicate over a bit-packed frame-of-reference column is rewritten, per
// chunk, into *delta space* and evaluated directly over the packed 64-bit
// words with the SWAR kernels of native_kernels.go (one per comparison
// and lane width) — 64/bits values per word, no decode.
//
// The rewrite works because packed deltas are order-space: within a chunk,
// key(row) = Ref + delta(row) with delta in [0, MaxKey-Ref], and unsigned
// comparison of keys agrees with the typed comparison (column.RawToKey).
// So for a literal with key c:
//
//	x = c   ⇔ delta = c-Ref            (impossible when c outside [Ref,MaxKey])
//	x < c   ⇔ delta < c-Ref            (none when c<=Ref, all when c>MaxKey)
//	x <= c  ⇔ delta < c-Ref+1          (none when c<Ref,  all when c>=MaxKey)
//	x > c, x >= c, x != c: complements of the above within the block mask.
//
// Chunks where the literal falls outside [Ref, MaxKey] collapse to
// always-false or always-true *for valid rows* without touching a single
// word — the same information zone maps use for pruning, applied at
// per-chunk granularity inside the kernel. Callers remain responsible for
// ANDing the validity mask (NULL rows pack delta 0 and must never match),
// exactly as they are for the unpacked SWAR kernels.
type packedPred struct {
	p    *column.Packed
	off  int    // the column view's row offset into the packed space
	keyC uint64 // order-space key of the literal
	op   expr.CmpOp

	// Per-chunk resolved comparison, cached for the (sequential) caller.
	ci   int
	mode packedMode
	pat  uint64 // delta-space comparison pattern (single lane, not broadcast)
}

// packedMode is the per-chunk outcome of rewriting the predicate into
// delta space.
type packedMode uint8

const (
	packNone packedMode = iota // no valid row in the chunk can match
	packAll                    // every valid row in the chunk matches
	packEq                     // delta == pat
	packNe                     // delta != pat
	packLt                     // delta <  pat
	packGe                     // delta >= pat
)

// newPackedPred builds the evaluator for a compare predicate over a packed
// column, or nil when the predicate is not of that form (NULL tests, Bloom
// prefilters and column-vs-column comparisons keep their existing paths).
func newPackedPred(p Pred) *packedPred {
	if p.Kind != expr.PredCompare || p.IsBloom() || p.IsColCol() || !p.Col.IsPacked() {
		return nil
	}
	packed, off := p.Col.Packed()
	return &packedPred{
		p:    packed,
		off:  off,
		keyC: column.ValueKey(p.Col.Type(), p.Value),
		op:   p.Op,
		ci:   -1,
	}
}

// resolve rewrites the predicate into delta space for chunk ci.
func (e *packedPred) resolve(ci int) {
	e.ci = ci
	ch := &e.p.Chunks()[ci]
	ref, maxKey, c := ch.Ref, ch.MaxKey, e.keyC
	switch e.op {
	case expr.Eq:
		if c < ref || c > maxKey {
			e.mode = packNone
			return
		}
		e.mode, e.pat = packEq, c-ref
	case expr.Ne:
		if c < ref || c > maxKey {
			e.mode = packAll
			return
		}
		e.mode, e.pat = packNe, c-ref
	case expr.Lt:
		if c <= ref {
			e.mode = packNone
			return
		}
		if c > maxKey {
			e.mode = packAll
			return
		}
		e.mode, e.pat = packLt, c-ref
	case expr.Le:
		if c < ref {
			e.mode = packNone
			return
		}
		if c >= maxKey {
			e.mode = packAll
			return
		}
		e.mode, e.pat = packLt, c-ref+1
	case expr.Gt:
		if c >= maxKey {
			e.mode = packNone
			return
		}
		if c < ref {
			e.mode = packAll
			return
		}
		e.mode, e.pat = packGe, c-ref+1
	default: // expr.Ge
		if c > maxKey {
			e.mode = packNone
			return
		}
		if c <= ref {
			e.mode = packAll
			return
		}
		e.mode, e.pat = packGe, c-ref
	}
}

// firstN is the dense mask of the low cnt bits (cnt <= 64).
func firstN(cnt int) uint64 {
	if cnt >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(cnt) - 1
}

// blockMask evaluates the predicate for cnt rows (cnt <= 64) starting at
// view row b and returns the dense match bitmap (bit i = row b+i). The
// result does NOT account for NULLs — callers AND the validity mask, as
// for every other compare kernel.
//
// The SWAR fast path requires a full 64-row block inside one chunk with
// its first lane on a word boundary; partial blocks and blocks that start
// mid-word (views with unaligned offsets) fall back to the scalar per-lane
// extraction, which is bit-identical. A chunk-straddling block is split.
func (e *packedPred) blockMask(b, cnt int) uint64 {
	row := e.off + b
	chunkRows := e.p.ChunkRows()
	ci := row / chunkRows
	lane := row - ci*chunkRows
	if lane+cnt > chunkRows {
		// Chunk-straddling block: split at the boundary.
		head := chunkRows - lane
		return e.blockMask(b, head) | e.blockMask(b+head, cnt-head)<<uint(head)
	}
	if e.ci != ci {
		e.resolve(ci)
	}
	switch e.mode {
	case packNone:
		return 0
	case packAll:
		return firstN(cnt)
	}
	ch := &e.p.Chunks()[ci]
	lg := bits.TrailingZeros8(ch.Bits)
	lpw := 64 >> uint(lg) // lanes per word
	if lane%lpw != 0 || cnt < 64 {
		// Misaligned view or partial block: scalar per-lane fallback.
		var m uint64
		for i := 0; i < cnt; i++ {
			if e.matchDelta(ch.Delta(lane + i)) {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	f, pat, mm, hh, inv := e.kernel(lg)
	return f(ch.Words[lane/lpw:], pat, mm, hh) ^ inv
}

// kernel returns the packed kernel of the resolved Eq/Ne/Lt/Ge comparison
// at lane width 2^lg, its pattern and lane masks (packedMaskFunc), and the
// mask to XOR its miss bits with: all ones for Eq and Lt, none for their
// complements Ne and Ge.
func (e *packedPred) kernel(lg int) (f packedMaskFunc, pat, mm, hh, inv uint64) {
	hh = packedLaneHigh[lg]
	pat = e.pat * (hh >> (1<<lg - 1))
	kind := packedKindEq
	if e.mode == packLt || e.mode == packGe {
		kind, pat = packedKindLtLow, pat&^hh
		if e.pat>>(1<<lg-1) != 0 {
			kind = packedKindLtHigh
		}
	}
	if e.mode == packEq || e.mode == packLt {
		inv = ^uint64(0)
	}
	return packedKernels[kind][lg], pat, ^hh, hh, inv
}

// step lowers the predicate over a Native window of n view rows to its
// block step (NULLs not consulted; nil means every row matches). When the
// window lies in one chunk and starts on a word boundary — the engine's
// chunk-aligned windows do — the comparison is resolved here, once, and
// each full block is one kernel call on its words. Other windows, and a
// partial last block, go through blockMask.
func (e *packedPred) step(n int) blockStep {
	cr := e.p.ChunkRows()
	ci, lane := e.off/cr, e.off%cr
	if n == 0 || lane+n > cr || lane%(64>>bits.TrailingZeros8(e.p.Chunks()[ci].Bits)) != 0 {
		return func(b, cnt int, m uint64) uint64 { return m & e.blockMask(b, cnt) }
	}
	e.resolve(ci)
	switch e.mode {
	case packNone:
		return func(int, int, uint64) uint64 { return 0 }
	case packAll:
		return nil
	}
	ch := &e.p.Chunks()[ci]
	lg := bits.TrailingZeros8(ch.Bits)
	shift := uint(6 - lg) // block row b starts at word b>>shift of the window
	f, pat, mm, hh, inv := e.kernel(lg)
	words := ch.Words[lane>>shift:]
	s := func(b, cnt int, m uint64) uint64 { return m & (f(words[b>>shift:], pat, mm, hh) ^ inv) }
	if n%64 == 0 {
		return s
	}
	// The window ends in a partial block: it takes blockMask's per-lane path.
	return func(b, cnt int, m uint64) uint64 {
		if cnt < 64 {
			return m & e.blockMask(b, cnt)
		}
		return s(b, cnt, m)
	}
}

// matchDelta applies the resolved delta-space comparison to one delta.
func (e *packedPred) matchDelta(d uint64) bool {
	switch e.mode {
	case packNone:
		return false
	case packAll:
		return true
	case packEq:
		return d == e.pat
	case packNe:
		return d != e.pat
	case packLt:
		return d < e.pat
	default: // packGe
		return d >= e.pat
	}
}

// matchRow evaluates the predicate for one view row (NULLs not consulted).
func (e *packedPred) matchRow(i int) bool {
	row := e.off + i
	ci := row / e.p.ChunkRows()
	if e.ci != ci {
		e.resolve(ci)
	}
	ch := &e.p.Chunks()[ci]
	return e.matchDelta(ch.Delta(row - ci*e.p.ChunkRows()))
}

// wordSpan returns the packed payload bytes covering cnt rows starting at
// view row b — what a block evaluation actually reads (used for machine-
// model charging by the emulated kernels).
func (e *packedPred) wordSpan(b, cnt int) int {
	if cnt <= 0 {
		return 0
	}
	first := e.p.WordAddr(e.off + b)
	last := e.p.WordAddr(e.off + b + cnt - 1)
	return int(last-first) + 8
}

// HasPacked reports whether any predicate of the chain scans a packed
// column. The SISD, Fused and Native kernels evaluate packed columns
// without decoding; the block-at-a-time baselines (AutoVec,
// BlockMaterialized, Strided) read raw column bytes and reject packed
// chains at construction.
func (ch Chain) HasPacked() bool {
	for _, p := range ch {
		if p.Col.IsPacked() || (p.Col2 != nil && p.Col2.IsPacked()) {
			return true
		}
	}
	return false
}

// Encoding labels the storage encoding of the chain's predicate columns
// for operator stats: "plain", "packed", or "mixed" when the chain scans
// both.
func (ch Chain) Encoding() string {
	packed, plain := false, false
	for _, p := range ch {
		for _, c := range [...]*column.Column{p.Col, p.Col2} {
			switch {
			case c == nil:
			case c.IsPacked():
				packed = true
			default:
				plain = true
			}
		}
	}
	switch {
	case packed && plain:
		return "mixed"
	case packed:
		return "packed"
	default:
		return "plain"
	}
}

// ScanBytes totals the stored value bytes a full pass over the chain's
// predicate column views touches: packed word spans for packed columns,
// rows x lane size for plain ones. Validity bitmaps are separate.
func (ch Chain) ScanBytes() int64 {
	var n int64
	for _, p := range ch {
		n += p.Col.ScanBytes()
		if p.Col2 != nil {
			n += p.Col2.ScanBytes()
		}
	}
	return n
}
