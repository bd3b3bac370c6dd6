package scan

//go:generate go run ./gen

import (
	"fmt"
	"math/bits"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
)

// Native is the turbo execution path: it evaluates a fused predicate chain
// directly over the typed column bytes with generated SWAR kernels
// (native_kernels_gen.go) instead of the emulated AVX-512 interpreter.
//
// The structure mirrors the paper's fused kernel at 64-row block
// granularity. NewNative specialises the chain once into a slice of block
// steps, one per predicate, each with its column, needle, kernel and
// validity AND bound in (for a packed column, the delta-space comparison is
// resolved once per window). Run seeds each block's mask with the block's
// rows and lets every step AND its whole branch-free 64-row mask in; the
// chain stops at the first step that leaves the mask empty, so later
// columns are read only for blocks where something survived. Positions are
// emitted from the final mask. Counts and position lists are bit-identical
// to Fused/SISD/Reference — enforced by the differential fuzzer in
// native_test.go.
//
// Native does not touch the machine model: the cpu argument is accepted to
// satisfy Kernel and ignored, so results carry no simulated PerfReport
// (the Config.Simulate contract in the public API).
type Native struct {
	ch       Chain
	steps    []blockStep
	sizeHint int
}

// blockStep ANDs one predicate into the chain mask m of the block of cnt
// rows (cnt <= 64) starting at row b; m has no bits past cnt.
type blockStep func(b, cnt int, m uint64) uint64

// NewNative builds the native kernel for a validated chain. All ten types
// and six comparators have generated kernels (in both the needle and the
// column-vs-column family), so this only fails on an invalid chain.
func NewNative(ch Chain) (*Native, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	k := &Native{ch: ch, steps: make([]blockStep, 0, len(ch))}
	for i := range ch {
		s, err := nativeStep(&ch[i], ch.Rows())
		if err != nil {
			return nil, err
		}
		if s != nil {
			k.steps = append(k.steps, s)
		}
	}
	return k, nil
}

// nativeStep lowers one predicate over a window of n rows to its block
// step; nil means the predicate holds for every row of the window.
func nativeStep(p *Pred, n int) (blockStep, error) {
	switch {
	case p.Kind != expr.PredCompare:
		// NULL test: the block mask is the validity polarity.
		return func(b, cnt int, m uint64) uint64 { return m & p.BlockMask(b, cnt) }, nil
	case p.IsBloom():
		// Bloom prefilter: probe the filter for the surviving rows, then
		// mask out NULL keys.
		return func(b, cnt int, m uint64) uint64 {
			checks := int64(bits.OnesCount64(m))
			for r := m; r != 0; r &= r - 1 {
				i := bits.TrailingZeros64(r)
				if !p.Bloom.Test(p.Col.Raw(b + i)) {
					m &^= 1 << uint(i)
				}
			}
			if p.Col.HasNulls() {
				m &= p.Col.ValidMask(b, cnt)
			}
			if p.Stats != nil {
				p.Stats.Checks.Add(checks)
				p.Stats.Pass.Add(int64(bits.OnesCount64(m)))
			}
			return m
		}, nil
	case p.IsColCol() && (p.Col.IsPacked() || p.Col2.IsPacked()):
		// Col-vs-col over packed storage: the SWAR col-col kernels read
		// full-width lanes, so decode the surviving rows one at a time.
		// Matches covers validity.
		return func(b, cnt int, m uint64) uint64 {
			for r := m; r != 0; r &= r - 1 {
				if i := bits.TrailingZeros64(r); !p.Matches(b+i, 0) {
					m &^= 1 << uint(i)
				}
			}
			return m
		}, nil
	case p.IsColCol():
		f := nativeMaskColFuncs[p.Col.Type()][p.Op]
		if f == nil {
			return nil, fmt.Errorf("scan: no native col-vs-col kernel for %s %s", p.Col.Type(), p.Op)
		}
		x, y := p.Col.Data(), p.Col2.Data()
		s := func(b, cnt int, m uint64) uint64 { return m & f(x, y, b, cnt) }
		return withValidity(withValidity(s, p.Col), p.Col2), nil
	case p.Col.IsPacked():
		// Compare over a packed column: delta-space SWAR over the packed
		// words, no decode (packed.go).
		return withValidity(newPackedPred(*p).step(n), p.Col), nil
	}
	f := nativeMaskFuncs[p.Col.Type()][p.Op]
	if f == nil {
		return nil, fmt.Errorf("scan: no native kernel for %s %s", p.Col.Type(), p.Op)
	}
	data, needle := p.Col.Data(), p.StoredBits()
	return withValidity(func(b, cnt int, m uint64) uint64 { return m & f(data, b, cnt, needle) }, p.Col), nil
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

// Run implements Kernel. The machine model is not consulted; cpu may be
// nil. A count-only run performs zero heap allocations.
func (k *Native) Run(cpu *mach.CPU, wantPositions bool) Result {
	faultinject.MaybePanic(faultinject.SiteKernelRun)
	n := k.ch.Rows()
	var res Result
	if wantPositions && k.sizeHint > 0 {
		res.Positions = make([]uint32, 0, k.sizeHint)
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
	return res
}
