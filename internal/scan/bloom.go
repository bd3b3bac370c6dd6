package scan

import (
	"math"
	"math/bits"
	"sync/atomic"

	"fusedscan/internal/expr"
)

// Bloom is a blocked-free, split-hash Bloom filter over stored column bits
// — the predicate-transfer prefilter (Yang et al.): the hash join builds it
// from the *filtered* build side's join keys and injects it into the probe
// side's fused scan chain, so probe rows whose key cannot possibly have a
// build partner are discarded inside the scan kernel, before the hash
// table is ever touched.
//
// Keys are the raw stored bit patterns of the join-key column
// (column.Raw), normalized for float types so that -0.0 and +0.0 hash
// identically (they compare equal under SQL '='). NaN keys are never
// inserted — NaN equals nothing, including itself — so a NaN probe key
// passes or fails the filter arbitrarily and is rejected by the hash
// lookup that follows; the filter only ever errs on the side of letting a
// row through.
//
// The filter is deterministic (fixed seed mixing, size a power of two
// derived from the expected key count), so simulated-mode query metrics
// stay byte-stable.
type Bloom struct {
	words []uint64
	mask  uint64    // bit-index mask: len(words)*64 - 1
	typ   expr.Type // key type: float -0.0 is normalized before hashing
	n     int       // keys added
}

// bloomBitsPerKey sizes the filter at ~10 bits per expected key (~1% false
// positives with two probes derived from one 64-bit mix).
const bloomBitsPerKey = 10

// NewBloom builds an empty filter sized for n expected keys of type t.
func NewBloom(t expr.Type, n int) *Bloom {
	bitsWanted := n * bloomBitsPerKey
	if bitsWanted < 64 {
		bitsWanted = 64
	}
	w := 1 << uint(bits.Len(uint(bitsWanted-1)))
	return &Bloom{
		words: make([]uint64, (w+63)/64),
		mask:  uint64(w - 1),
		typ:   t,
	}
}

// SizeBytes returns the filter's bit-array footprint (for memory
// accounting against the governance budget).
func (bl *Bloom) SizeBytes() int64 { return int64(len(bl.words)) * 8 }

// Keys returns how many keys have been added.
func (bl *Bloom) Keys() int { return bl.n }

// NormKey canonicalizes raw stored key bits for hashing and hash-table
// lookup: -0.0 folds onto +0.0 for float-typed keys so bit-pattern
// equality matches SQL value equality. Integer bits pass through (they are
// already sign-extended consistently by column.Raw).
func (bl *Bloom) NormKey(raw uint64) uint64 {
	return NormKeyBits(bl.typ, raw)
}

// NormKeyBits canonicalizes raw stored key bits for hash-join and grouping
// key equality, independent of any filter instance: -0.0 folds onto +0.0
// for float types (SQL '=' treats them as equal) and everything else passes
// through. The hash join's build table, its Bloom filter and the probe
// lookup must all use the same normalization or equal keys miss each other.
// A float32 key's stored bits are its 32-bit pattern, so its zero test
// widens them first.
func NormKeyBits(t expr.Type, raw uint64) uint64 {
	switch {
	case t == expr.Float32 && math.Float32frombits(uint32(raw)) == 0,
		t == expr.Float64 && math.Float64frombits(raw) == 0:
		return 0
	}
	return raw
}

// splitmix64 is the canonical 64-bit finalizer — deterministic and well
// distributed over raw bit patterns.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add inserts a key's raw stored bits.
func (bl *Bloom) Add(raw uint64) {
	h := splitmix64(bl.NormKey(raw))
	h1 := h & bl.mask
	h2 := (h >> 32) & bl.mask
	bl.words[h1/64] |= 1 << (h1 % 64)
	bl.words[h2/64] |= 1 << (h2 % 64)
	bl.n++
}

// Test reports whether a key's raw stored bits may have been added. False
// means definitely absent; true may be a false positive.
func (bl *Bloom) Test(raw uint64) bool {
	h := splitmix64(bl.NormKey(raw))
	h1 := h & bl.mask
	h2 := (h >> 32) & bl.mask
	return bl.words[h1/64]&(1<<(h1%64)) != 0 &&
		bl.words[h2/64]&(1<<(h2%64)) != 0
}

// BloomStats counts prefilter evaluations across kernel runs. The counters
// are atomic because morsel-parallel scans evaluate one shared filter from
// many goroutines.
type BloomStats struct {
	Checks atomic.Int64 // rows that reached the prefilter stage
	Pass   atomic.Int64 // rows the filter let through
}
