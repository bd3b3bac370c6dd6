package fusedscan

import (
	"runtime"
	"strings"
	"testing"
)

// buildClusteredEngine registers a table whose column is sorted, so
// consecutive chunks cover disjoint value ranges — the layout zone-map
// pruning exists for. With 1<<20 rows and the default 1<<16-row chunks the
// scan splits into 16 chunks; a needle confined to the last one should
// prune 15 of them (93.75% >= the 90% acceptance bar).
func buildClusteredEngine(t *testing.T) (*Engine, int) {
	t.Helper()
	const n = 1 << 20
	av := make([]int32, n)
	want := 0
	for i := range av {
		av[i] = int32(i / 1000) // sorted: chunk c covers [c*65, (c+1)*65] roughly
		if av[i] == 1040 {
			want++
		}
	}
	eng := NewEngine()
	tb := eng.CreateTable("clustered")
	tb.Int32("a", av)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	return eng, want
}

func scanStats(t *testing.T, res *Result) OperatorStats {
	t.Helper()
	if len(res.Operators) == 0 {
		t.Fatal("no operator stats")
	}
	s := res.Operators[len(res.Operators)-1]
	if !strings.Contains(s.Name, "TableScan") {
		t.Fatalf("deepest operator = %q, want a scan", s.Name)
	}
	return s
}

// TestNativeConfigEndToEnd runs the same query under the default
// (simulated) and native configs and checks the public contract: identical
// results, a simulated report only when Simulate is set, and the execution
// path surfaced in the operator stats.
func TestNativeConfigEndToEnd(t *testing.T) {
	eng, want := buildTestEngine(t, 30000, 0.2, 0.3)
	const q = "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2"

	sim, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Report == nil {
		t.Fatal("simulated config produced no report")
	}
	if p := scanStats(t, sim).Path; p != "emulated" {
		t.Errorf("simulated path = %q, want emulated", p)
	}

	if err := eng.SetConfig(NativeConfig()); err != nil {
		t.Fatal(err)
	}
	nat, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if nat.Count != int64(want) || nat.Count != sim.Count {
		t.Fatalf("native count %d, simulated %d, want %d", nat.Count, sim.Count, want)
	}
	if nat.Report != nil {
		t.Error("native config produced a simulated report")
	}
	if !nat.Fused {
		t.Error("native scan not reported as fused")
	}
	if p := scanStats(t, nat).Path; p != "native" {
		t.Errorf("native path = %q, want native", p)
	}
}

// TestNativeQueryBuildsNoMachineModel: a native query must not pay for the
// paper's machine model, whose caches alone take about 5 MB to build. A
// 2-predicate COUNT(*) over 256 Ki rows needs a few KB without it.
func TestNativeQueryBuildsNoMachineModel(t *testing.T) {
	eng, want := buildTestEngine(t, 1<<18, 0.2, 0.3)
	if err := eng.SetConfig(NativeConfig()); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2"
	// Warm-up: the first query builds the columns' zone maps.
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(want) {
			t.Fatalf("count %d, want %d", res.Count, want)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("native query allocates %d KiB, want < 64 KiB", per>>10)
	}
}

// TestClusteredPruningEndToEnd is the acceptance regression for zone-map
// data skipping: on clustered data with a point predicate, at least 90% of
// the chunks must be pruned — on the native path and on the emulated path,
// with identical results.
func TestClusteredPruningEndToEnd(t *testing.T) {
	eng, want := buildClusteredEngine(t)
	const q = "SELECT COUNT(*) FROM clustered WHERE a = 1040"

	for _, cfg := range []Config{DefaultConfig(), NativeConfig()} {
		if err := eng.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(want) {
			t.Fatalf("simulate=%v: count %d, want %d", cfg.Simulate, res.Count, want)
		}
		s := scanStats(t, res)
		// 16 chunks, matches confined to one: at least 15 pruned.
		if s.ChunksPruned < 15 {
			t.Errorf("simulate=%v: pruned %d chunks, want >= 15 of 16", cfg.Simulate, s.ChunksPruned)
		}
		// Pruned chunks must not count as scanned rows.
		if s.RowsIn > 1<<17 {
			t.Errorf("simulate=%v: scan consumed %d rows despite pruning", cfg.Simulate, s.RowsIn)
		}
	}
}

// TestScanAPIPruning checks the direct Scan API surfaces the prune count
// and stays exact.
func TestScanAPIPruning(t *testing.T) {
	eng, want := buildClusteredEngine(t)
	res, err := eng.NewScan("clustered").Where("a", "=", "1040").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want || len(res.Positions) != want {
		t.Fatalf("count %d (positions %d), want %d", res.Count, len(res.Positions), want)
	}
	if res.ChunksPruned < 15 {
		t.Errorf("pruned %d chunks, want >= 15 of 16", res.ChunksPruned)
	}

	// Native config, same scan: same answer, no report.
	if err := eng.SetConfig(NativeConfig()); err != nil {
		t.Fatal(err)
	}
	nres, err := eng.NewScan("clustered").Where("a", "=", "1040").Run()
	if err != nil {
		t.Fatal(err)
	}
	if nres.Count != want || nres.ChunksPruned < 15 {
		t.Fatalf("native: count %d pruned %d, want %d and >= 15", nres.Count, nres.ChunksPruned, want)
	}
	if nres.Report != nil {
		t.Error("native scan produced a simulated report")
	}
	for i := range res.Positions {
		if res.Positions[i] != nres.Positions[i] {
			t.Fatalf("position %d differs: %d vs %d", i, res.Positions[i], nres.Positions[i])
		}
	}
}
