package scan

import (
	"fmt"

	"fusedscan/internal/mach"
)

// Sorted position-list intersection (Lemire/Boytsov/Kurz, "SIMD
// Compression and the Intersection of Sorted Integers"): when predicates
// are evaluated one at a time, each produces an ascending list of
// qualifying row ids and the conjunction is their intersection. A naive
// linear merge costs O(|A|+|B|) regardless of how selective the smaller
// list is; production engines gallop (exponential probe + binary search)
// through the larger list instead, which costs O(|A| log |B|/|A|) — a big
// win exactly when one predicate is much more selective than the other,
// which is the common case the optimizer's predicate reordering creates.
//
// IntersectPositions picks the strategy by size ratio: balanced inputs use
// a block linear merge (branch-light, cache-friendly), lopsided inputs
// gallop through the larger list. Both emit the ascending intersection and
// are bit-identical to the linear merge.

// gallopRatio is the size ratio beyond which galloping beats the linear
// merge (crossover measured in BenchmarkIntersect; the classic rule of
// thumb is one order of magnitude).
const gallopRatio = 8

// IntersectPositions intersects two ascending position lists into dst
// (reused if it has capacity; pass nil to allocate). dst may alias a or b:
// no entry is written before it has been read. The result is ascending.
// Inputs must be strictly ascending, as scan kernels emit them.
func IntersectPositions(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	dst = dst[:0]
	if len(a) == 0 {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		return galloplIntersect(dst, a, b)
	}
	return linearIntersect(dst, a, b)
}

// linearIntersect is the classic two-finger merge, unrolled over blocks of
// the smaller list to keep the hot loop branch-light.
func linearIntersect(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av == bv {
			dst = append(dst, av)
			i++
			j++
			continue
		}
		if av < bv {
			i++
		} else {
			j++
		}
	}
	return dst
}

// galloplIntersect walks the smaller list a and gallops through b: for
// each a[i], probe b at exponentially growing strides from the current
// frontier, then binary-search the bracketed range. The frontier only
// moves forward, so the whole pass reads each b element at most O(log)
// times.
func galloplIntersect(dst, a, b []uint32) []uint32 {
	lo := 0
	for _, av := range a {
		// Exponential probe: find hi with b[hi] >= av.
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < av {
			lo = hi + 1
			hi = lo + step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search b[lo:hi] for av.
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b[mid] < av {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(b) {
			break
		}
		if b[lo] == av {
			dst = append(dst, av)
			lo++
		}
	}
	return dst
}

// PerPredicate evaluates a conjunctive chain one predicate at a time —
// each predicate as its own single-predicate kernel pass — and combines
// the resulting sorted position lists with IntersectPositions. This is the
// paper's "consecutive scans" baseline upgraded with sub-linear list
// combination; it is also an independent oracle for the fused kernels
// (different evaluation order, same bit-identical result).
type PerPredicate struct {
	ch       Chain
	build    func(Chain) (Kernel, error)
	kernels  []Kernel
	sizeHint int
}

// NewPerPredicate builds one single-predicate kernel per chain entry using
// the given constructor (e.g. NewNative wrapped, or an Impl's Build).
func NewPerPredicate(ch Chain, build func(Chain) (Kernel, error)) (*PerPredicate, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	p := &PerPredicate{ch: ch, build: build, kernels: make([]Kernel, len(ch))}
	for i := range ch {
		k, err := build(Chain{ch[i]})
		if err != nil {
			return nil, fmt.Errorf("scan: per-predicate pass %d: %w", i, err)
		}
		p.kernels[i] = k
	}
	return p, nil
}

// Name implements Kernel.
func (p *PerPredicate) Name() string { return "Per-predicate + intersect" }

// SetSizeHint implements SizeHinter.
func (p *PerPredicate) SetSizeHint(rows int) { p.sizeHint = rows }

// Run implements Kernel: every predicate scans the full input, then the
// sorted lists are intersected smallest-first (the cheapest association
// order for pairwise intersection).
func (p *PerPredicate) Run(cpu *mach.CPU, wantPositions bool) Result {
	lists := make([][]uint32, len(p.kernels))
	for i, k := range p.kernels {
		lists[i] = k.Run(cpu, true).Positions
	}
	// Intersect smallest-first: sort indices by list length (insertion
	// sort; chains are short).
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	acc := lists[0]
	var scratch []uint32
	for _, l := range lists[1:] {
		if len(acc) == 0 {
			acc = acc[:0]
			break
		}
		scratch = IntersectPositions(scratch, acc, l)
		acc, scratch = scratch, acc
	}
	res := Result{Count: len(acc)}
	if wantPositions {
		res.Positions = append([]uint32(nil), acc...)
	}
	return res
}

// IntersectMany intersects k ascending lists smallest-first and returns
// the ascending result (convenience over IntersectPositions; used by
// consumers holding per-predicate results, e.g. tests and benchmarks).
func IntersectMany(lists ...[]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	ls := append([][]uint32(nil), lists...)
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && len(ls[j]) < len(ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	acc := append([]uint32(nil), ls[0]...)
	var scratch []uint32
	for _, l := range ls[1:] {
		scratch = IntersectPositions(scratch, acc, l)
		acc, scratch = scratch, acc
		if len(acc) == 0 {
			break
		}
	}
	return acc
}
