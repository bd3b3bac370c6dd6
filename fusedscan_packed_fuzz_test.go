package fusedscan

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// Differential fuzz of scan-on-compressed storage (DESIGN.md §15): every
// round builds a packed table and its plain twin with identical values and
// NULLs, runs the same randomized multi-predicate aggregate query against
// both under the default and native configs, and checks all four results
// against an independent scalar oracle computed in key space. The value
// generator sweeps all eight integer types, packed widths 1..64, NULL
// densities, chunk-boundary row counts, and frames anchored at the type
// extremes (frame-of-reference overflow edges). Predicate constants are
// drawn to land inside, below, and above the stored range so the packed
// plan-time collapse (always-false / always-true) is exercised too.
//
// `make fuzz-diff` raises the round count via
// FUSEDSCAN_FUZZ_PACKED_ROUNDS, which also unlocks the row counts that
// cross the 64Ki pack-chunk boundary.

// packedFuzzType describes one integer type in key space: values are
// generated as uint64 keys in [0, 2^bits), where the key order equals the
// type's comparison order (signed types are sign-biased).
type packedFuzzType struct {
	name   string // expr.ParseType name
	bits   uint
	signed bool
}

var packedFuzzTypes = []packedFuzzType{
	{"int8", 8, true}, {"int16", 16, true}, {"int32", 32, true}, {"int64", 64, true},
	{"uint8", 8, false}, {"uint16", 16, false}, {"uint32", 32, false}, {"uint64", 64, false},
}

// literal renders a key-space value as a SQL literal of the type.
func (ft packedFuzzType) literal(key uint64) string {
	if !ft.signed {
		return strconv.FormatUint(key, 10)
	}
	if ft.bits == 64 {
		return strconv.FormatInt(int64(key^(1<<63)), 10)
	}
	return strconv.FormatInt(int64(key)-int64(1)<<(ft.bits-1), 10)
}

// keySpace returns the number of keys representable by the type, with
// 2^64 saturated to MaxUint64+0 handled by the bits==64 special cases at
// the call sites.
func (ft packedFuzzType) maxKey() uint64 {
	if ft.bits == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<ft.bits - 1
}

// packedFuzzPred is one comparison against the fuzzed column, kept in key
// space so the oracle is a plain uint64 comparison for every type.
type packedFuzzPred struct {
	op  string // =, <>, <, <=, >, >=
	key uint64
}

func (p packedFuzzPred) match(key uint64) bool {
	switch p.op {
	case "=":
		return key == p.key
	case "<>":
		return key != p.key
	case "<":
		return key < p.key
	case "<=":
		return key <= p.key
	case ">":
		return key > p.key
	case ">=":
		return key >= p.key
	}
	panic("unknown op " + p.op)
}

var packedFuzzOps = []string{"=", "<>", "<", "<=", ">", ">="}

func TestFuzzPackedDifferential(t *testing.T) {
	rounds := 10
	if s := os.Getenv("FUSEDSCAN_FUZZ_PACKED_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			rounds = n
		}
	}
	sizes := []int{1, 63, 1000, 4097}
	if rounds > 10 {
		// Cross the 64Ki pack-chunk boundary (exact, -1, +1, and a
		// multi-chunk count with a ragged tail).
		sizes = append(sizes, 65535, 65536, 65537, 150001)
	}

	rng := rand.New(rand.NewSource(77))
	native := NativeConfig()
	for round := 0; round < rounds; round++ {
		ft := packedFuzzTypes[rng.Intn(len(packedFuzzTypes))]
		n := sizes[rng.Intn(len(sizes))]

		// Pick a frame: width w in 1..bits, anchored uniformly at random,
		// with deliberate bias toward the type extremes so the chunk
		// reference sits where frame-of-reference deltas are closest to
		// under/overflowing the type.
		w := uint(1 + rng.Intn(int(ft.bits)))
		var span uint64 // number of distinct keys generated, 0 = full 2^64
		if w < 64 {
			span = uint64(1) << w
		}
		var lo uint64
		switch {
		case w >= ft.bits:
			lo = 0
		case rng.Intn(4) == 0:
			lo = 0
		case rng.Intn(3) == 0:
			lo = ft.maxKey() - (span - 1)
		default:
			lo = rng.Uint64() % (ft.maxKey() - (span - 1) + 1)
		}

		keys := make([]uint64, n)
		for i := range keys {
			if span == 0 {
				keys[i] = rng.Uint64()
			} else {
				keys[i] = lo + rng.Uint64()%span
			}
		}
		nullEvery := []int{0, 2, 13}[rng.Intn(3)] // 0 = no NULLs
		var nullRows []int
		for i := 0; i < n; i++ {
			if nullEvery != 0 && i%nullEvery == 0 {
				nullRows = append(nullRows, i)
			}
		}
		bvals := make([]int32, n)
		for i := range bvals {
			bvals[i] = int32(i % 997)
		}

		// 1..3 predicates on the packed column; constants land inside the
		// stored range, at its edges, just outside it (collapse paths), or
		// anywhere in the type.
		npred := 1 + rng.Intn(3)
		preds := make([]packedFuzzPred, npred)
		hiKey := lo
		if span == 0 {
			hiKey = ft.maxKey()
		} else {
			hiKey = lo + span - 1
		}
		for i := range preds {
			var key uint64
			switch rng.Intn(6) {
			case 0:
				key = keys[rng.Intn(n)]
			case 1:
				key = lo
			case 2:
				key = hiKey
			case 3:
				if lo > 0 {
					key = lo - 1
				} else {
					key = ft.maxKey()
				}
			case 4:
				if hiKey < ft.maxKey() {
					key = hiKey + 1
				} else {
					key = 0
				}
			default:
				key = rng.Uint64()
				if ft.bits < 64 {
					key %= uint64(1) << ft.bits
				}
			}
			preds[i] = packedFuzzPred{op: packedFuzzOps[rng.Intn(len(packedFuzzOps))], key: key}
		}
		bLimit := int32(rng.Intn(1100)) // sometimes filters, sometimes passes all
		useB := rng.Intn(2) == 0

		// Scalar oracle over keys (key order == type order).
		isNull := make([]bool, n)
		for _, r := range nullRows {
			isNull[r] = true
		}
		var wantCount, wantSum int64
		for i := 0; i < n; i++ {
			if isNull[i] {
				continue
			}
			ok := true
			for _, p := range preds {
				if !p.match(keys[i]) {
					ok = false
					break
				}
			}
			if ok && useB && bvals[i] >= bLimit {
				ok = false
			}
			if ok {
				wantCount++
				wantSum += int64(bvals[i])
			}
		}

		// Build the packed table and its plain twin on one engine.
		eng := NewEngine()
		avals := make([]string, n)
		for i, k := range keys {
			avals[i] = ft.literal(k)
		}
		for _, tbl := range []struct {
			name string
			pack bool
		}{{"pk", true}, {"up", false}} {
			b := eng.CreateTable(tbl.name).
				Column("a", ft.name, avals).
				Int32("b", bvals).
				NullsAt("a", nullRows)
			if tbl.pack {
				b = b.Pack("a")
			}
			if err := b.Finish(); err != nil {
				t.Fatalf("round %d: build %s (type=%s n=%d w=%d): %v", round, tbl.name, ft.name, n, w, err)
			}
		}

		where := ""
		for i, p := range preds {
			if i > 0 {
				where += " AND "
			}
			where += fmt.Sprintf("a %s %s", p.op, ft.literal(p.key))
		}
		if useB {
			where += fmt.Sprintf(" AND b < %d", bLimit)
		}

		var rows [4][][]string
		i := 0
		for _, cfg := range []struct {
			name string
			cfg  *Config
		}{{"default", nil}, {"native", &native}} {
			for _, tbl := range []string{"pk", "up"} {
				sql := fmt.Sprintf("SELECT COUNT(*), SUM(b) FROM %s WHERE %s", tbl, where)
				res, err := eng.QueryWith(context.Background(), sql, QueryOptions{Config: cfg.cfg})
				if err != nil {
					t.Fatalf("round %d [%s/%s] %q (type=%s n=%d w=%d lo=%#x): %v",
						round, cfg.name, tbl, sql, ft.name, n, w, lo, err)
				}
				if res.Count != wantCount {
					t.Fatalf("round %d [%s/%s] %q (type=%s n=%d w=%d lo=%#x nulls=%d): count=%d, oracle=%d",
						round, cfg.name, tbl, sql, ft.name, n, w, lo, nullEvery, res.Count, wantCount)
				}
				if len(res.Rows) != 1 {
					t.Fatalf("round %d [%s/%s]: aggregate returned %d rows", round, cfg.name, tbl, len(res.Rows))
				}
				rows[i] = res.Rows
				i++
			}
		}
		// SUM(b) catches any position-list divergence that preserves the
		// count: all four runs must render identically, and when anything
		// qualified the sum must equal the oracle's.
		for j := 1; j < 4; j++ {
			if !reflect.DeepEqual(rows[j], rows[0]) {
				t.Fatalf("round %d: run %d rendered %v, run 0 rendered %v (type=%s n=%d w=%d where=%q)",
					round, j, rows[j], rows[0], ft.name, n, w, where)
			}
		}
		if wantCount > 0 {
			if got := rows[0][0][1]; got != strconv.FormatInt(wantSum, 10) {
				t.Fatalf("round %d: SUM(b)=%s, oracle=%d (type=%s n=%d w=%d where=%q)",
					round, got, wantSum, ft.name, n, w, where)
			}
		}
	}
}
