package scan

//go:generate go run ./gen

import (
	"fmt"
	"math/bits"

	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
)

// Native is the turbo execution path: it evaluates a fused predicate chain
// directly over the typed column bytes with generated SWAR kernels
// (native_kernels_gen.go) instead of the emulated AVX-512 interpreter.
//
// The structure mirrors the paper's fused kernel at 64-row block
// granularity: the first compare predicate produces a match bitmap for the
// whole block (branch-free, eight 1-byte lanes per word on the SWAR fast
// path), later predicates refine only the surviving bits via
// bits.TrailingZeros64, and positions are emitted from the final bitmap.
// Counts and position lists are bit-identical to Fused/SISD/Reference —
// enforced by the differential fuzzer in native_test.go.
//
// Native does not touch the machine model: the cpu argument is accepted to
// satisfy Kernel and ignored, so results carry no simulated PerfReport
// (the Config.Simulate contract in the public API).
type Native struct {
	ch         Chain
	needles    []uint64
	masks      []nativeMaskFunc      // nil for NULL-test, Bloom and col-vs-col predicates
	refines    []nativeRefineFunc    // nil for NULL-test, Bloom and col-vs-col predicates
	colMasks   []nativeMaskColFunc   // set only for column-vs-column predicates
	colRefines []nativeRefineColFunc // set only for column-vs-column predicates
	packs      []*packedPred         // set only for compares over packed columns
	scalars    []bool                // scalar fallback (col-vs-col touching a packed column)
	sizeHint   int
}

// NewNative builds the native kernel for a validated chain. All ten types
// and six comparators have generated kernels (in both the needle and the
// column-vs-column family), so this only fails on an invalid chain.
func NewNative(ch Chain) (*Native, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	k := &Native{
		ch:         ch,
		needles:    make([]uint64, len(ch)),
		masks:      make([]nativeMaskFunc, len(ch)),
		refines:    make([]nativeRefineFunc, len(ch)),
		colMasks:   make([]nativeMaskColFunc, len(ch)),
		colRefines: make([]nativeRefineColFunc, len(ch)),
		packs:      make([]*packedPred, len(ch)),
		scalars:    make([]bool, len(ch)),
	}
	for i, p := range ch {
		if p.Kind != expr.PredCompare || p.IsBloom() {
			continue
		}
		if p.IsColCol() {
			if p.Col.IsPacked() || p.Col2.IsPacked() {
				// Col-vs-col over packed storage: the SWAR col-col kernels
				// read full-width lanes; decode-on-the-fly row-at-a-time.
				k.scalars[i] = true
				continue
			}
			cmf := nativeMaskColFuncs[p.Col.Type()][p.Op]
			crf := nativeRefineColFuncs[p.Col.Type()][p.Op]
			if cmf == nil || crf == nil {
				return nil, fmt.Errorf("scan: no native col-vs-col kernel for %s %s", p.Col.Type(), p.Op)
			}
			k.colMasks[i] = cmf
			k.colRefines[i] = crf
			continue
		}
		if p.Col.IsPacked() {
			// Compare over a packed column: delta-space SWAR over the
			// packed words, no decode (packed.go).
			k.packs[i] = newPackedPred(p)
			continue
		}
		mf := nativeMaskFuncs[p.Col.Type()][p.Op]
		rf := nativeRefineFuncs[p.Col.Type()][p.Op]
		if mf == nil || rf == nil {
			return nil, fmt.Errorf("scan: no native kernel for %s %s", p.Col.Type(), p.Op)
		}
		k.needles[i] = p.StoredBits()
		k.masks[i] = mf
		k.refines[i] = rf
	}
	return k, nil
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
		cnt := n - b
		if cnt > 64 {
			cnt = 64
		}
		var m uint64
		first := true
		for j := range k.ch {
			p := &k.ch[j]
			switch {
			case p.IsBloom():
				// Bloom prefilter: probe the filter for candidate rows
				// (all rows of the block when it leads the chain), then
				// mask out NULL keys.
				var checks int64
				if first {
					for i := 0; i < cnt; i++ {
						if p.Bloom.Test(p.Col.Raw(b + i)) {
							m |= 1 << uint(i)
						}
					}
					checks = int64(cnt)
					first = false
				} else {
					checks = int64(bits.OnesCount64(m))
					for r := m; r != 0; r &= r - 1 {
						i := bits.TrailingZeros64(r)
						if !p.Bloom.Test(p.Col.Raw(b + i)) {
							m &^= 1 << uint(i)
						}
					}
				}
				if p.Col.HasNulls() {
					m &= p.Col.ValidMask(b, cnt)
				}
				if p.Stats != nil {
					p.Stats.Checks.Add(checks)
					p.Stats.Pass.Add(int64(bits.OnesCount64(m)))
				}
			case k.packs[j] != nil:
				// Compare over a packed column, evaluated in delta space
				// directly over the packed words.
				bm := k.packs[j].blockMask(b, cnt)
				if first {
					m = bm
					first = false
				} else {
					m &= bm
				}
				if p.Col.HasNulls() {
					m &= p.Col.ValidMask(b, cnt)
				}
			case k.scalars[j]:
				// Scalar fallback (col-vs-col with a packed side): Matches
				// covers validity, so no separate NULL masking.
				if first {
					for i := 0; i < cnt; i++ {
						if p.Matches(b+i, k.needles[j]) {
							m |= 1 << uint(i)
						}
					}
					first = false
				} else {
					for r := m; r != 0; r &= r - 1 {
						i := bits.TrailingZeros64(r)
						if !p.Matches(b+i, k.needles[j]) {
							m &^= 1 << uint(i)
						}
					}
				}
			case k.colMasks[j] != nil:
				// Column-vs-column compare over two row-aligned columns.
				if first {
					m = k.colMasks[j](p.Col.Data(), p.Col2.Data(), b, cnt)
					first = false
				} else {
					m = k.colRefines[j](p.Col.Data(), p.Col2.Data(), b, m)
				}
				if p.Col.HasNulls() {
					m &= p.Col.ValidMask(b, cnt)
				}
				if p.Col2.HasNulls() {
					m &= p.Col2.ValidMask(b, cnt)
				}
			case k.masks[j] == nil:
				// NULL test: the block mask is the validity polarity.
				bm := p.BlockMask(b, cnt)
				if first {
					m = bm
					first = false
				} else {
					m &= bm
				}
			case first:
				m = k.masks[j](p.Col.Data(), b, cnt, k.needles[j])
				if p.Col.HasNulls() {
					m &= p.Col.ValidMask(b, cnt)
				}
				first = false
			default:
				m = k.refines[j](p.Col.Data(), b, m, k.needles[j])
				if p.Col.HasNulls() {
					m &= p.Col.ValidMask(b, cnt)
				}
			}
			if m == 0 {
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
