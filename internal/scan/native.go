package scan

import (
	"math/bits"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
	"fusedscan/internal/vec"
)

// Native is the turbo execution path: it evaluates a fused predicate chain
// directly over the column values with the generic block kernels of
// native_kernels.go, reading each plain column through its typed view
// (column.View), instead of the emulated AVX-512 interpreter.
//
// The structure mirrors the paper's fused kernel at 64-row block
// granularity. NewNative specialises the chain once into a slice of block
// steps, one per predicate, each with its column view, typed needle,
// kernel and validity AND bound in (for a packed column, the delta-space
// comparison is resolved once per window). Run seeds each block's mask
// with the block's rows and lets every step AND its whole branch-free
// 64-row mask in; the chain stops at the first step that leaves the mask
// empty, so later columns are read only for blocks where something
// survived. Positions are emitted from the final mask. Counts and position
// lists are bit-identical to Fused/SISD/Reference — enforced by the
// differential fuzzer in native_test.go.
//
// Native does not touch the machine model: the cpu argument is accepted to
// satisfy Kernel and ignored, so results carry no simulated PerfReport
// (the Config.Simulate contract in the public API).
type Native struct {
	ch    Chain
	steps []blockStep
	// tallies are the Bloom steps' counts, added to their shared stats
	// once per Run: per block, cores scanning windows in parallel would
	// contend on the atomic counters.
	tallies  []*bloomTally
	sizeHint int
	buf      []uint32
}

// bloomTally is one Bloom step's checks and passes over a kernel run.
type bloomTally struct {
	pred         *Pred
	checks, pass int64
}

// blockStep ANDs one predicate into the chain mask m of the block of cnt
// rows (cnt <= 64) starting at row b; m has no bits past cnt.
type blockStep func(b, cnt int, m uint64) uint64

// NewNative builds the native kernel for a chain. Every type, comparator
// and predicate form has a kernel, so this fails only on an invalid chain.
func NewNative(ch Chain) (*Native, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	k := &Native{ch: ch, steps: make([]blockStep, 0, len(ch))}
	for i := range ch {
		if s := k.step(&ch[i], ch.Rows()); s != nil {
			k.steps = append(k.steps, s)
		}
	}
	return k, nil
}

// step lowers one predicate over a window of n rows to its block step;
// nil means the predicate holds for every row of the window.
func (k *Native) step(p *Pred, n int) blockStep {
	switch {
	case p.Kind != expr.PredCompare:
		// NULL test: the block mask is the validity polarity.
		return func(b, cnt int, m uint64) uint64 { return m & p.BlockMask(b, cnt) }
	case p.IsBloom():
		// Bloom prefilter: probe the filter for the surviving rows, then
		// mask out NULL keys.
		t := &bloomTally{pred: p}
		k.tallies = append(k.tallies, t)
		return func(b, cnt int, m uint64) uint64 {
			t.checks += int64(bits.OnesCount64(m))
			for r := m; r != 0; r &= r - 1 {
				i := bits.TrailingZeros64(r)
				if !p.Bloom.Test(p.Col.Raw(b + i)) {
					m &^= 1 << uint(i)
				}
			}
			if p.Col.HasNulls() {
				m &= p.Col.ValidMask(b, cnt)
			}
			t.pass += int64(bits.OnesCount64(m))
			return m
		}
	case p.IsColCol() && (p.Col.IsPacked() || p.Col2.IsPacked()):
		// Col-vs-col over packed storage: the col-col kernels read
		// full-width lanes, so decode the surviving rows one at a time.
		// Matches covers validity.
		return func(b, cnt int, m uint64) uint64 {
			for r := m; r != 0; r &= r - 1 {
				if i := bits.TrailingZeros64(r); !p.Matches(b+i, 0) {
					m &^= 1 << uint(i)
				}
			}
			return m
		}
	case p.IsColCol():
		return withValidity(withValidity(typedSteps[p.Col.Type()](p), p.Col), p.Col2)
	case p.Col.IsPacked():
		// Compare over a packed column: delta-space SWAR over the packed
		// words, no decode (packed.go).
		return withValidity(newPackedPred(*p).step(n), p.Col)
	}
	return withValidity(typedSteps[p.Col.Type()](p), p.Col)
}

// typedSteps lowers a compare over plain columns through the kernels
// instantiated for the column type.
var typedSteps = [expr.NumTypes]func(*Pred) blockStep{
	expr.Int8: compareStep[int8], expr.Int16: compareStep[int16],
	expr.Int32: compareStep[int32], expr.Int64: compareStep[int64],
	expr.Uint8: compareStep[uint8], expr.Uint16: compareStep[uint16],
	expr.Uint32: compareStep[uint32], expr.Uint64: compareStep[uint64],
	expr.Float32: compareStep[float32], expr.Float64: compareStep[float64],
}

// compareStep binds the typed view of p's column (and of Col2 for a
// column-vs-column compare) and, for a literal, the needle decoded into T
// once, to the block kernel of p.Op. Validity is the caller's.
func compareStep[T column.Elem](p *Pred) blockStep {
	x, byteLanes := column.View[T](p.Col), p.Col.Type().Size() == 1
	if p.IsColCol() {
		y := column.View[T](p.Col2)
		if a, c := p.Col.Data(), p.Col2.Data(); byteLanes && (p.Op == expr.Eq || p.Op == expr.Ne) {
			// 1-byte equality: eight lanes per word (maskColEqByte).
			if p.Op == expr.Eq {
				return func(b, cnt int, m uint64) uint64 { return m & maskColEqByte(a, c, b, cnt) }
			}
			return func(b, cnt int, m uint64) uint64 { return m &^ maskColEqByte(a, c, b, cnt) }
		}
		switch p.Op {
		case expr.Eq:
			return func(b, cnt int, m uint64) uint64 { return m & maskColEq(x, y, b, cnt) }
		case expr.Ne:
			return func(b, cnt int, m uint64) uint64 { return m &^ maskColEq(x, y, b, cnt) }
		case expr.Lt:
			return func(b, cnt int, m uint64) uint64 { return m & maskColLt(x, y, b, cnt) }
		case expr.Le:
			return func(b, cnt int, m uint64) uint64 { return m & maskColLe(x, y, b, cnt) }
		case expr.Gt:
			return func(b, cnt int, m uint64) uint64 { return m & maskColLt(y, x, b, cnt) }
		default: // expr.Ge
			return func(b, cnt int, m uint64) uint64 { return m & maskColLe(y, x, b, cnt) }
		}
	}
	raw := p.StoredBits()
	if a, pat := p.Col.Data(), vec.BroadcastByte(byte(raw)); byteLanes && (p.Op == expr.Eq || p.Op == expr.Ne) {
		// 1-byte equality: eight lanes per word (maskEqByte).
		if p.Op == expr.Eq {
			return func(b, cnt int, m uint64) uint64 { return m & maskEqByte(a, b, cnt, pat) }
		}
		return func(b, cnt int, m uint64) uint64 { return m &^ maskEqByte(a, b, cnt, pat) }
	}
	n := column.FromRaw[T](raw)
	switch p.Op {
	case expr.Eq:
		return func(b, cnt int, m uint64) uint64 { return m & maskEq(x, b, cnt, n) }
	case expr.Ne:
		return func(b, cnt int, m uint64) uint64 { return m &^ maskEq(x, b, cnt, n) }
	case expr.Lt:
		return func(b, cnt int, m uint64) uint64 { return m & maskLt(x, b, cnt, n) }
	case expr.Le:
		return func(b, cnt int, m uint64) uint64 { return m & maskLe(x, b, cnt, n) }
	case expr.Gt:
		return func(b, cnt int, m uint64) uint64 { return m & maskGt(x, b, cnt, n) }
	default: // expr.Ge
		return func(b, cnt int, m uint64) uint64 { return m & maskGe(x, b, cnt, n) }
	}
}

// withValidity ANDs col's validity into step s when col has NULLs; a nil
// s (always true) becomes the validity AND alone.
func withValidity(s blockStep, col *column.Column) blockStep {
	switch {
	case !col.HasNulls():
		return s
	case s == nil:
		return func(b, cnt int, m uint64) uint64 { return m & col.ValidMask(b, cnt) }
	}
	return func(b, cnt int, m uint64) uint64 { return s(b, cnt, m) & col.ValidMask(b, cnt) }
}

// Name implements Kernel.
func (k *Native) Name() string { return "Native (SWAR)" }

// SetSizeHint implements SizeHinter: rows is the expected number of
// qualifying positions, used to pre-size the position list.
func (k *Native) SetSizeHint(rows int) { k.sizeHint = rows }

// SetPositionBuffer implements PositionBuffer.
func (k *Native) SetPositionBuffer(buf []uint32) { k.buf = buf }

// Run implements Kernel. The machine model is not consulted; cpu may be
// nil. A count-only run performs zero heap allocations.
func (k *Native) Run(cpu *mach.CPU, wantPositions bool) Result {
	faultinject.MaybePanic(faultinject.SiteKernelRun)
	n := k.ch.Rows()
	var res Result
	if wantPositions {
		res.Positions = k.buf[:0]
		if cap(res.Positions) < k.sizeHint {
			res.Positions = make([]uint32, 0, k.sizeHint)
		}
	}
	for b := 0; b < n; b += 64 {
		cnt := min(n-b, 64)
		m := firstN(cnt)
		for _, s := range k.steps {
			if m = s(b, cnt, m); m == 0 {
				break
			}
		}
		if m == 0 {
			continue
		}
		res.Count += bits.OnesCount64(m)
		if wantPositions {
			for r := m; r != 0; r &= r - 1 {
				res.Positions = append(res.Positions, uint32(b+bits.TrailingZeros64(r)))
			}
		}
	}
	for _, t := range k.tallies {
		if st := t.pred.Stats; st != nil {
			st.Checks.Add(t.checks)
			st.Pass.Add(t.pass)
		}
		t.checks, t.pass = 0, 0
	}
	return res
}
