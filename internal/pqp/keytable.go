package pqp

import (
	"math/bits"
	"slices"
)

// keyTable is the one hash table of the operator layer: the aggregation
// sink resolves group keys in it and the hash join resolves build and
// probe keys in it. It maps rows of key words — a fixed stride of uint64
// per row — to dense ids with linear probing. Key id's words sit at
// words[id*stride:(id+1)*stride]; a slot holds id+1, 0 marking it empty.
// The slot array is a power of two, at least keyTableMinSlots, and doubles
// whenever it is half full, so a new key costs no allocation of its own.
type keyTable struct {
	stride int
	words  []uint64
	slots  []int32
	shift  uint // 64 - log2(len(slots))
}

const (
	keyTableMinSlots = 16
	// hashMul is 2^64/φ: multiply-shift (Fibonacci) hashing keeps the
	// product's top bits.
	hashMul = 0x9e3779b97f4a7c15
)

// keyTableSlots is the slot count that holds keys keys below the half-full
// growth point.
func keyTableSlots(keys int) int {
	s := keyTableMinSlots
	for s <= 2*keys {
		s *= 2
	}
	return s
}

// keyTableBytes is what newKeyTable(stride, keys) allocates: the slot
// array and room for keys rows of key words.
func keyTableBytes(stride, keys int) int64 {
	return 4*int64(keyTableSlots(keys)) + 8*int64(stride*keys)
}

// newKeyTable returns an empty table sized to take hint keys without
// growing. A hint of 0 starts at keyTableMinSlots.
func newKeyTable(stride, hint int) keyTable {
	slots := keyTableSlots(hint)
	return keyTable{
		stride: stride,
		words:  make([]uint64, 0, stride*hint),
		slots:  make([]int32, slots),
		shift:  64 - uint(bits.TrailingZeros(uint(slots))),
	}
}

// reset empties the table, keeping its memory.
func (t *keyTable) reset() {
	clear(t.slots)
	t.words = t.words[:0]
}

// size returns how many keys the table holds.
func (t *keyTable) size() int { return len(t.words) / t.stride }

func (t *keyTable) home(key []uint64) int {
	var h uint64
	for _, w := range key {
		h = (h ^ w) * hashMul
	}
	return int(h >> t.shift)
}

// find returns key's id, or -1 and the empty slot where insert must place
// it.
func (t *keyTable) find(key []uint64) (id int32, slot int) {
	if t.stride == 1 {
		return t.find1(key[0])
	}
	mask := len(t.slots) - 1
	for s := t.home(key); ; s = (s + 1) & mask {
		g := t.slots[s] - 1
		if g < 0 || slices.Equal(t.words[int(g)*t.stride:][:t.stride], key) {
			return g, s
		}
	}
}

// find1 is find for a one-word key (stride 1: a single non-nullable group
// key, or a join key), comparing words directly.
func (t *keyTable) find1(w uint64) (id int32, slot int) {
	mask := len(t.slots) - 1
	for s := int(w * hashMul >> t.shift); ; s = (s + 1) & mask {
		g := t.slots[s] - 1
		if g < 0 || t.words[g] == w {
			return g, s
		}
	}
}

// insert adds key with the next id at the slot find returned.
func (t *keyTable) insert(key []uint64, slot int) int32 {
	g := int32(t.size())
	t.words = append(t.words, key...)
	t.slots[slot] = g + 1
	if 2*(int(g)+1) >= len(t.slots) {
		t.grow()
	}
	return g
}

func (t *keyTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	mask := len(t.slots) - 1
	for g := range t.size() {
		s := t.home(t.words[g*t.stride:][:t.stride])
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(g) + 1
	}
}
