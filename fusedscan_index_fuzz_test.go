package fusedscan

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
)

// TestFuzzIndexDifferential is the index subsystem's differential fuzzer:
// random comparison predicates over indexed and unindexed int columns —
// with NULLs and heavy key duplication — run three ways (forced index,
// hint-suppressed fused scan, unhinted cost-based choice) under the
// default emulated config, the native SWAR config and a native config on
// three cores, and every variant's row positions, count and SUM(rid) must
// match a scalar oracle evaluated directly over the source arrays. Every
// sixth round's table spans two or three 64 Ki windows, so index scans
// cross window boundaries and run their windows in parallel.
//
// The default round count keeps `go test` fast; `make fuzz-diff` raises
// it via FUSEDSCAN_FUZZ_INDEX_ROUNDS.
func TestFuzzIndexDifferential(t *testing.T) {
	// The engine caps a native scan's cores at GOMAXPROCS; raise it so
	// three cores are available on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	rounds := 12
	if s := os.Getenv("FUSEDSCAN_FUZZ_INDEX_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("FUSEDSCAN_FUZZ_INDEX_ROUNDS=%q: %v", s, err)
		}
		rounds = n
	}
	rng := rand.New(rand.NewSource(20260808))
	ops := []string{"=", "<", "<=", ">", ">="}
	threeCores := NativeConfig()
	threeCores.Cores = 3
	configs := []Config{DefaultConfig(), NativeConfig(), threeCores}
	parallelIndex := false

	for round := 0; round < rounds; round++ {
		n := 1<<12 + rng.Intn(1<<15)
		if round%6 == 5 {
			n = 1<<16 + 1 + rng.Intn(1<<17)
		}
		card := 1 + rng.Intn(64) // small cardinality: heavy duplicate keys
		nullFrac := rng.Float64() * 0.2

		av := make([]int32, n)
		bv := make([]int32, n)
		aNull := make([]bool, n)
		bNull := make([]bool, n)
		var aNullRows, bNullRows []int
		for i := 0; i < n; i++ {
			av[i] = int32(rng.Intn(card)) - int32(card/2) // negatives too
			bv[i] = int32(rng.Intn(card))
			if rng.Float64() < nullFrac {
				aNull[i] = true
				aNullRows = append(aNullRows, i)
			}
			if rng.Float64() < nullFrac {
				bNull[i] = true
				bNullRows = append(bNullRows, i)
			}
		}
		eng := NewEngine()
		tb := eng.CreateTable("f")
		rid := make([]int32, n)
		for i := range rid {
			rid[i] = int32(i)
		}
		tb.Int32("rid", rid)
		tb.Int32("a", av)
		tb.Int32("b", bv)
		tb.NullsAt("a", aNullRows)
		tb.NullsAt("b", bNullRows)
		tb.Index("a")
		if err := tb.Finish(); err != nil {
			t.Fatal(err)
		}

		for probe := 0; probe < 6; probe++ {
			opA := ops[rng.Intn(len(ops))]
			opB := ops[rng.Intn(len(ops))]
			la := int32(rng.Intn(card+2)) - int32(card/2) - 1
			lb := int32(rng.Intn(card + 2))
			twoPreds := rng.Intn(2) == 0

			where := fmt.Sprintf("a %s %d", opA, la)
			if twoPreds {
				where += fmt.Sprintf(" AND b %s %d", opB, lb)
			}

			// Scalar oracle over the raw arrays; NULL satisfies nothing.
			var want []string
			sum := 0
			for i := 0; i < n; i++ {
				if aNull[i] || !cmpInt32(av[i], opA, la) {
					continue
				}
				if twoPreds && (bNull[i] || !cmpInt32(bv[i], opB, lb)) {
					continue
				}
				want = append(want, strconv.Itoa(i))
				sum += i
			}
			wantAgg := fmt.Sprintf("[[%d %d]]", len(want), sum)
			if len(want) == 0 {
				wantAgg = "[[0 NULL]]"
			}

			for _, cfg := range configs {
				if err := eng.SetConfig(cfg); err != nil {
					t.Fatal(err)
				}
				for _, hint := range []string{"/*+ INDEX(f a) */ ", "/*+ NO_INDEX */ ", ""} {
					// Streamed, so no materialization cap hides a row.
					q := fmt.Sprintf("SELECT %srid FROM f WHERE %s", hint, where)
					var rows [][]string
					res, err := eng.QueryWith(context.Background(), q, QueryOptions{Stream: func(_ []string, rs [][]string) error {
						rows = append(rows, rs...)
						return nil
					}})
					if err != nil {
						t.Fatalf("round %d: %s: %v", round, q, err)
					}
					if len(rows) != len(want) {
						t.Fatalf("round %d: %s (simulate=%v cores=%d): %d rows, oracle %d",
							round, q, cfg.Simulate, cfg.Cores, len(rows), len(want))
					}
					for i := range want {
						if rows[i][0] != want[i] {
							t.Fatalf("round %d: %s (simulate=%v cores=%d): row %d = %s, oracle %s",
								round, q, cfg.Simulate, cfg.Cores, i, rows[i][0], want[i])
						}
					}
					if st, ok := indexScanStats(res); ok && st.Cores > 1 {
						parallelIndex = true
					}
					q = fmt.Sprintf("SELECT %sCOUNT(*), SUM(rid) FROM f WHERE %s", hint, where)
					if res, err = eng.Query(q); err != nil {
						t.Fatalf("round %d: %s: %v", round, q, err)
					}
					if got := fmt.Sprint(res.Rows); got != wantAgg {
						t.Fatalf("round %d: %s (simulate=%v cores=%d): %s, oracle %s",
							round, q, cfg.Simulate, cfg.Cores, got, wantAgg)
					}
				}
			}
		}
	}
	if rounds > 5 && !parallelIndex {
		t.Error("no index scan ran its windows on more than one core")
	}
}

func cmpInt32(v int32, op string, lit int32) bool {
	switch op {
	case "=":
		return v == lit
	case "<":
		return v < lit
	case "<=":
		return v <= lit
	case ">":
		return v > lit
	case ">=":
		return v >= lit
	}
	panic("bad op " + op)
}
