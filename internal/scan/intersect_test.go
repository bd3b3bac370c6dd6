package scan

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// randomSortedList builds a strictly ascending uint32 list of ~size
// elements drawn from [0, domain).
func randomSortedList(rng *rand.Rand, size, domain int) []uint32 {
	seen := make(map[uint32]bool, size)
	for len(seen) < size && len(seen) < domain {
		seen[uint32(rng.Intn(domain))] = true
	}
	out := make([]uint32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mapIntersect is the oracle: hash-set intersection, sorted.
func mapIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out []uint32
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestIntersectPositionsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		domain := 1 + rng.Intn(5000)
		// Lopsided sizes in half the trials so both the linear and the
		// galloping strategy run.
		la := rng.Intn(domain + 1)
		lb := rng.Intn(domain + 1)
		if trial%2 == 0 {
			lb = rng.Intn(domain/64 + 1)
		}
		a := randomSortedList(rng, la, domain)
		b := randomSortedList(rng, lb, domain)
		want := mapIntersect(a, b)
		got := IntersectPositions(nil, a, b)
		if len(got) != len(want) {
			t.Fatalf("trial %d: |a|=%d |b|=%d: got %d elements, want %d", trial, len(a), len(b), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d: got %d, want %d", trial, i, got[i], want[i])
			}
		}
		// Buffer reuse must not change the result, nor must writing over
		// either input.
		reused := IntersectPositions(got[:0], a, b)
		if len(reused) != len(want) {
			t.Fatalf("trial %d: reuse changed the result", trial)
		}
		for side, in := range [][]uint32{a, b} {
			cp := append([]uint32(nil), in...)
			x, y := cp, b
			if side == 1 {
				x, y = a, cp
			}
			if got := IntersectPositions(cp[:0], x, y); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: in place over input %d: got %v, want %v", trial, side, got, want)
			}
		}
	}
}

func TestIntersectPositionsEdges(t *testing.T) {
	if got := IntersectPositions(nil, nil, []uint32{1, 2}); len(got) != 0 {
		t.Fatalf("empty ∩ list = %v", got)
	}
	if got := IntersectPositions(nil, []uint32{5}, []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); len(got) != 1 || got[0] != 5 {
		t.Fatalf("gallop single = %v", got)
	}
	if got := IntersectPositions(nil, []uint32{100}, []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); len(got) != 0 {
		t.Fatalf("gallop miss = %v", got)
	}
}

func TestIntersectMany(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		domain := 1 + rng.Intn(2000)
		k := 2 + rng.Intn(3)
		lists := make([][]uint32, k)
		for i := range lists {
			lists[i] = randomSortedList(rng, rng.Intn(domain+1), domain)
		}
		want := lists[0]
		for _, l := range lists[1:] {
			want = mapIntersect(want, l)
		}
		got := IntersectMany(lists...)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d elements, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d differs", trial, i)
			}
		}
	}
}

// TestPerPredicateMatchesFused: per-predicate scans + galloping
// intersection are an independent evaluation order that must produce
// results bit-identical to the fused chain — over plain and packed
// columns alike.
func TestPerPredicateMatchesFused(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	types := intTypes()
	ops := expr.AllCmpOps()
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4000)
		space := mach.NewAddrSpace()
		k := 2 + rng.Intn(3)
		var ch Chain
		for j := 0; j < k; j++ {
			typ := types[rng.Intn(len(types))]
			col := packableColumn(rng, space, "c", typ, n)
			if rng.Intn(3) == 0 {
				for i := 0; i < n; i++ {
					if rng.Intn(8) == 0 {
						col.SetNull(i)
					}
				}
			}
			if rng.Intn(2) == 0 {
				var err error
				col, err = column.Pack(col)
				if err != nil {
					t.Fatal(err)
				}
			}
			ch = append(ch, Pred{Col: col, Op: ops[rng.Intn(len(ops))], Value: packedNeedle(rng, typ, col)})
		}
		want := Reference(ch, true)
		pp, err := NewPerPredicate(ch, func(c Chain) (Kernel, error) { return NewNative(c) })
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := pp.Run(nil, true)
		if !equalResults(got, want) {
			t.Fatalf("trial %d: per-predicate count %d, want %d", trial, got.Count, want.Count)
		}
	}
}
