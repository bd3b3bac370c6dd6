package fusedscan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"fusedscan/internal/faultinject"
)

// parallelRows spans four full 64 Ki-row chunks and a ragged fifth.
const parallelRows = 4<<16 + 12345

// buildParallelEngine registers a fact table t over five chunks — random
// int columns a and b, float f with mixed magnitudes (so float sums depend
// on fold order), packed p, sorted s (zone maps prune it), join key k and
// r, a shuffled row number with a secondary index — and a dimension table
// d(k, v).
func buildParallelEngine(t *testing.T) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	a := make([]int32, parallelRows)
	b := make([]int32, parallelRows)
	f := make([]float64, parallelRows)
	p := make([]int32, parallelRows)
	s := make([]int32, parallelRows)
	k := make([]int32, parallelRows)
	r := shuffledRows(rng)
	for i := range a {
		a[i] = rng.Int31n(10)
		b[i] = rng.Int31n(100)
		f[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
		p[i] = rng.Int31n(1000)
		s[i] = int32(i / 1000)
		k[i] = rng.Int31n(5000)
	}
	eng := NewEngine()
	if err := eng.CreateTable("t").Int32("a", a).Int32("b", b).Float64("f", f).
		Int32("p", p).Int32("s", s).Int32("k", k).Int32("r", r).Pack("p").Index("r").Finish(); err != nil {
		t.Fatal(err)
	}
	dk := make([]int32, 5000)
	dv := make([]int32, 5000)
	for i := range dk {
		dk[i] = int32(i)
		dv[i] = rng.Int31n(10)
	}
	if err := eng.CreateTable("d").Int32("k", dk).Int32("v", dv).Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// shuffledRows returns a random permutation of 0..parallelRows-1: an
// indexed range over it keeps candidates in every window.
func shuffledRows(rng *rand.Rand) []int32 {
	r := make([]int32, parallelRows)
	for i, v := range rng.Perm(parallelRows) {
		r[i] = int32(v)
	}
	return r
}

// parallelOutcome is everything a query must reproduce on any core count.
type parallelOutcome struct {
	count                  int64
	columns                []string
	rows                   [][]string
	pruned, bytes          int64
	bloomChecks, bloomPass int64
	probes, indexRows      int64
	// scanned totals the scans' RowsIn.
	scanned   int64
	scans     int
	maxCores  int
	encodings []string
}

func runParallelQuery(t *testing.T, eng *Engine, sql string, stream bool, cores int) parallelOutcome {
	t.Helper()
	cfg := NativeConfig()
	cfg.Cores = cores
	qo := QueryOptions{Config: &cfg}
	var streamed [][]string
	if stream {
		qo.Stream = func(_ []string, rows [][]string) error {
			streamed = append(streamed, rows...)
			return nil
		}
	}
	res, err := eng.QueryWith(context.Background(), sql, qo)
	if err != nil {
		t.Fatalf("%s on %d cores: %v", sql, cores, err)
	}
	out := parallelOutcome{count: res.Count, columns: res.Columns, rows: res.Rows}
	if stream {
		out.rows = streamed
	}
	for _, op := range res.Operators {
		out.bloomChecks += op.BloomChecks
		out.bloomPass += op.BloomPass
		out.probes += op.IndexProbes
		out.indexRows += op.IndexRows
		// Only a scan leaf reports the cores it ran on.
		if op.Cores == 0 {
			continue
		}
		out.scans++
		out.scanned += op.RowsIn
		out.pruned += op.ChunksPruned
		out.bytes += op.BytesScanned
		out.maxCores = max(out.maxCores, op.Cores)
		out.encodings = append(out.encodings, op.Encoding)
	}
	return out
}

// TestParallelScansMatchSingleCore runs each query shape on 1, 2 and 3
// cores and requires identical rows (float aggregates compared as bits),
// pruning, scanned bytes, Bloom and index counters. A scan with at least
// two surviving chunks and no LIMIT must run on every core asked for, up
// to one per chunk; a scan with one surviving chunk, or a LIMIT hint, or
// a count-only scan with no predicate to run per window (unfiltered, or on
// the index path with no residual) must start no helper.
func TestParallelScansMatchSingleCore(t *testing.T) {
	// The engine caps a native scan's cores at GOMAXPROCS; raise it so
	// three cores are available on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	eng := buildParallelEngine(t)
	cases := []struct {
		name, sql string
		stream    bool
		// usable is the most cores the (probe) scan can use: one per
		// surviving window, or 1 under a LIMIT hint.
		usable    int
		floatCols []int
		check     func(t *testing.T, o parallelOutcome)
	}{
		{name: "count", sql: "SELECT COUNT(*) FROM t WHERE a < 7 AND b >= 20", usable: 5},
		{name: "float-sum-avg", sql: "SELECT SUM(f), AVG(f), COUNT(*) FROM t WHERE a < 8", usable: 5, floatCols: []int{0, 1}},
		{name: "group-by", sql: "SELECT a, COUNT(*), SUM(b), SUM(f) FROM t WHERE b < 90 GROUP BY a", usable: 5, floatCols: []int{3}},
		{name: "bloom-join", sql: "SELECT COUNT(*), SUM(t.b) FROM t JOIN d ON t.k = d.k WHERE t.a < 9 AND d.v = 3", usable: 5,
			check: func(t *testing.T, o parallelOutcome) {
				if o.bloomChecks == 0 || o.bloomPass >= o.bloomChecks {
					t.Errorf("no Bloom transfer: pass %d of %d checks", o.bloomPass, o.bloomChecks)
				}
			}},
		{name: "streamed-projection", sql: "SELECT a, b, f FROM t WHERE a = 3 AND b < 50", stream: true, usable: 5},
		{name: "packed", sql: "SELECT COUNT(*), SUM(p) FROM t WHERE p < 300 AND a < 9", usable: 5,
			check: func(t *testing.T, o parallelOutcome) {
				if !slices.Contains(o.encodings, "packed") && !slices.Contains(o.encodings, "mixed") {
					t.Errorf("encodings %v, want a packed scan", o.encodings)
				}
			}},
		{name: "pruned-two-windows", sql: "SELECT COUNT(*), SUM(b) FROM t WHERE s >= 100 AND s < 140", usable: 2,
			check: func(t *testing.T, o parallelOutcome) {
				if o.pruned != 3 {
					t.Errorf("pruned %d chunks, want 3", o.pruned)
				}
			}},
		{name: "pruned-one-window", sql: "SELECT COUNT(*), SUM(b) FROM t WHERE s = 250",
			check: func(t *testing.T, o parallelOutcome) {
				if o.pruned != 4 {
					t.Errorf("pruned %d chunks, want 4", o.pruned)
				}
			}},
		{name: "limit", sql: "SELECT a, b FROM t WHERE a = 3 LIMIT 10"},
		// With no WHERE the projection's LIMIT hint reaches the scan, which
		// stops after its first window.
		{name: "limit-unfiltered", sql: "SELECT a, b FROM t LIMIT 5",
			check: func(t *testing.T, o parallelOutcome) {
				if o.scanned > 1<<16 {
					t.Errorf("scanned %d rows, want at most one window", o.scanned)
				}
			}},
		// Counting every row leaves a helper no per-window work.
		{name: "count-unfiltered", sql: "SELECT COUNT(*) FROM t"},
		{name: "group-by-unfiltered", sql: "SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a", usable: 5},
		// The index path: a point lookup has one window, a LIMIT stops
		// early and a count with no residual has no work per window; a
		// residual or positions to emit spread the windows over the cores.
		{name: "index-point", sql: "SELECT COUNT(*), SUM(b) FROM t WHERE r = 123456", check: wantIndexScan},
		{name: "index-limit", sql: "SELECT /*+ INDEX(t r) */ a, b FROM t WHERE r < 200000 LIMIT 10", check: wantIndexScan},
		{name: "index-count", sql: "SELECT /*+ INDEX(t r) */ COUNT(*) FROM t WHERE r < 200000", check: wantIndexScan},
		{name: "index-count-residual", sql: "SELECT /*+ INDEX(t r) */ COUNT(*) FROM t WHERE r < 200000 AND a < 7", usable: 5, check: wantIndexScan},
		{name: "index-streamed-projection", sql: "SELECT /*+ INDEX(t r) */ r, a, f FROM t WHERE r < 5000", stream: true, usable: 5, check: wantIndexScan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runParallelQuery(t, eng, tc.sql, tc.stream, 1)
			if want.scans == 0 || want.maxCores != 1 {
				t.Fatalf("single-core run: %d scans, max cores %d", want.scans, want.maxCores)
			}
			if len(want.rows) == 0 {
				t.Fatal("degenerate case: no rows")
			}
			if tc.check != nil {
				tc.check(t, want)
			}
			for _, cores := range []int{2, 3} {
				got := runParallelQuery(t, eng, tc.sql, tc.stream, cores)
				wantCores := min(cores, max(tc.usable, 1))
				if got.maxCores != wantCores {
					t.Errorf("%d cores: scan ran on %d, want %d", cores, got.maxCores, wantCores)
				}
				got.maxCores = want.maxCores
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%d cores differ from 1:\ngot  %+v\nwant %+v", cores, got, want)
				}
				for _, c := range tc.floatCols {
					for r := range want.rows {
						gb, wb := floatBits(t, got.rows[r][c]), floatBits(t, want.rows[r][c])
						if gb != wb {
							t.Errorf("%d cores: row %d col %d bits %#x, want %#x", cores, r, c, gb, wb)
						}
					}
				}
			}
		})
	}
}

// wantIndexScan checks that a query ran on the index access path.
func wantIndexScan(t *testing.T, o parallelOutcome) {
	t.Helper()
	if o.probes != 1 || o.indexRows == 0 {
		t.Errorf("%d index probes materialized %d rows, want one probe", o.probes, o.indexRows)
	}
}

// TestParallelScanAPIMatchesSingleCore runs one direct scan natively on
// 1, 2 and 3 cores and on the simulated path: identical positions, and
// the same pruned chunks, scanned bytes and encoding, since every leg runs
// the same zone-map-pruned chunk windows, on as many cores as were asked
// for and have a chunk to scan.
func TestParallelScanAPIMatchesSingleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	eng := buildParallelEngine(t)
	run := func(cfg Config) *ScanResult {
		t.Helper()
		if err := eng.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := eng.NewScan("t").Where("s", ">=", "100").Where("s", "<", "140").
			Where("a", "<", "7").Where("p", "<", "300").Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(DefaultConfig())
	if want.Count == 0 || want.ChunksPruned != 3 || want.Encoding != "mixed" {
		t.Fatalf("simulated: count %d, pruned %d, encoding %q; want matches, 3 pruned, mixed",
			want.Count, want.ChunksPruned, want.Encoding)
	}
	if want.Cores != 1 {
		t.Errorf("simulated: ran on %d cores, want 1", want.Cores)
	}
	for _, cores := range []int{1, 2, 3} {
		cfg := NativeConfig()
		cfg.Cores = cores
		got := run(cfg)
		// Two chunks survive pruning: a third core has nothing to scan.
		if wantCores := min(cores, 2); got.Cores != wantCores {
			t.Errorf("%d cores: scan ran on %d, want %d", cores, got.Cores, wantCores)
		}
		if !slices.Equal(got.Positions, want.Positions) || got.Count != want.Count ||
			got.ChunksPruned != want.ChunksPruned || got.BytesScanned != want.BytesScanned || got.Encoding != want.Encoding {
			t.Errorf("%d cores: count %d pruned %d bytes %d %s, want %d pruned %d bytes %d %s (positions equal %v)",
				cores, got.Count, got.ChunksPruned, got.BytesScanned, got.Encoding,
				want.Count, want.ChunksPruned, want.BytesScanned, want.Encoding, slices.Equal(got.Positions, want.Positions))
		}
	}
}

func floatBits(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return math.Float64bits(v)
}

// TestParallelScanCappedByExecutingQueries: a native scan takes only the
// cores other executing queries leave (GOMAXPROCS less the others).
func TestParallelScanCappedByExecutingQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	eng := buildParallelEngine(t)
	const sql = "SELECT COUNT(*) FROM t WHERE a < 7"
	if got := runParallelQuery(t, eng, sql, false, 4); got.maxCores != 2 {
		t.Errorf("alone on 2 procs: scan ran on %d cores, want 2", got.maxCores)
	}
	release, err := eng.gov.Admit(context.Background()) // another query executing
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := runParallelQuery(t, eng, sql, false, 4); got.maxCores != 1 {
		t.Errorf("beside another query on 2 procs: scan ran on %d cores, want 1", got.maxCores)
	}
}

// buildFragmentEngine registers a fact table t over five chunks for
// aggregation fragments: key g spans exactly 64 Ki values (direct group
// ids) and h one more (hashed, and more groups than a window has rows),
// nk is a nullable key and nv a nullable value, fk a float key of NaN,
// -0, +0 and other values, f a float value whose sums depend on fold
// order, e a column whose third chunk keeps no row of e = 2 although its
// zone map cannot prune it, k a join key into the dimension d(k, v) and
// into m(k, w), which repeats its keys, r a shuffled row number with a
// secondary index and s the row number over 1000, sorted, so its zone maps
// prune.
func buildFragmentEngine(t *testing.T) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(48))
	g, h, nk, nv, e, k, a := make([]int32, parallelRows), make([]int32, parallelRows), make([]int32, parallelRows),
		make([]int32, parallelRows), make([]int32, parallelRows), make([]int32, parallelRows), make([]int32, parallelRows)
	srt := make([]int32, parallelRows)
	f, fk := make([]float64, parallelRows), make([]float64, parallelRows)
	keys := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2, math.Inf(1)}
	r := shuffledRows(rng)
	var nullKeys, nullVals []int
	for i := range g {
		g[i] = int32(i * 7 % (1 << 16))
		h[i] = int32(i % (1<<16 + 1))
		nk[i], nv[i] = rng.Int31n(10), rng.Int31n(1000)-500
		if rng.Intn(10) == 0 {
			nullKeys = append(nullKeys, i)
		}
		if rng.Intn(7) == 0 {
			nullVals = append(nullVals, i)
		}
		e[i] = 2
		if i>>16 == 2 {
			e[i] = 1 + 2*int32(i%2)
		}
		k[i], a[i] = rng.Int31n(5000), rng.Int31n(10)
		f[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
		fk[i] = keys[rng.Intn(len(keys))]
		srt[i] = int32(i / 1000)
	}
	eng := NewEngine()
	if err := eng.CreateTable("t").Int32("g", g).Int32("h", h).Int32("nk", nk).Int32("nv", nv).
		Int32("e", e).Int32("k", k).Int32("a", a).Int32("r", r).Int32("s", srt).Float64("f", f).Float64("fk", fk).
		NullsAt("nk", nullKeys).NullsAt("nv", nullVals).Index("r").Finish(); err != nil {
		t.Fatal(err)
	}
	dk, dv := make([]int32, 5000), make([]int32, 5000)
	for i := range dk {
		dk[i], dv[i] = int32(i), rng.Int31n(10)
	}
	if err := eng.CreateTable("d").Int32("k", dk).Int32("v", dv).Finish(); err != nil {
		t.Fatal(err)
	}
	// m(k, w) holds each of the keys 0..2499 from zero to three times.
	var mk, mw []int32
	for k := range int32(2500) {
		for range rng.Intn(4) {
			mk, mw = append(mk, k), append(mw, rng.Int31n(1000))
		}
	}
	if err := eng.CreateTable("m").Int32("k", mk).Int32("w", mw).Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestParallelFragmentsMatchSingleCore runs aggregation fragments — scan,
// join probe and fold of each window on the core that scanned it — on 1,
// 2 and 3 cores over five windows, and requires bit-identical rows and
// equal operator counters: rows in and out, batches, groups, probe rows,
// Bloom checks and passes, pruned chunks, scanned bytes and index probes.
// Every scan, filtered, unfiltered or on the index path, runs on as many
// cores as were asked for and it has windows.
func TestParallelFragmentsMatchSingleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	eng := buildFragmentEngine(t)
	for _, tc := range []struct{ name, sql string }{
		{"bloom-join", "SELECT d.v, COUNT(*), SUM(t.f), AVG(t.f), MIN(t.nv) FROM t JOIN d ON t.k = d.k WHERE t.a < 9 AND d.v < 3 GROUP BY d.v"},
		{"unfiltered-join", "SELECT t.a, COUNT(*), SUM(d.v), MAX(t.f) FROM t JOIN d ON t.k = d.k WHERE t.e >= 0 GROUP BY t.a"},
		{"no-where-join", "SELECT t.a, COUNT(*), SUM(d.v), MAX(t.f) FROM t JOIN d ON t.k = d.k GROUP BY t.a"},
		{"build-where-join", "SELECT t.a, COUNT(*), SUM(d.v), MAX(t.f) FROM t JOIN d ON t.k = d.k WHERE d.v < 3 GROUP BY t.a"},
		{"null-probe-keys", "SELECT d.v, COUNT(*), SUM(t.nv), MIN(t.f) FROM t JOIN d ON t.nk = d.k WHERE d.v < 5 GROUP BY d.v"},
		{"span-64ki-direct", "SELECT g, COUNT(*), SUM(nv), AVG(f) FROM t WHERE a >= 0 GROUP BY g"},
		{"span-64ki-direct-no-where", "SELECT g, COUNT(*), SUM(nv), AVG(f) FROM t GROUP BY g"},
		{"span-64ki+1-hashed", "SELECT h, COUNT(*), SUM(nv), MIN(f) FROM t WHERE a >= 0 GROUP BY h"},
		{"span-64ki+1-hashed-no-where", "SELECT h, COUNT(*), SUM(nv), MIN(f) FROM t GROUP BY h"},
		{"null-keys-values", "SELECT nk, COUNT(*), SUM(nv), MIN(nv), MAX(nv), AVG(nv) FROM t WHERE a < 8 GROUP BY nk"},
		{"float-keys", "SELECT fk, COUNT(*), SUM(f), MIN(f), MAX(f) FROM t WHERE a < 9 GROUP BY fk"},
		{"float-sum-avg", "SELECT SUM(f), AVG(f), MIN(f), MAX(f), SUM(nv), COUNT(*) FROM t WHERE a < 8"},
		{"zero-key-no-where", "SELECT SUM(f), AVG(f), SUM(nv), COUNT(*) FROM t"},
		{"empty-window", "SELECT a, COUNT(*), SUM(f) FROM t WHERE e = 2 GROUP BY a"},
		{"empty-window-zero-key", "SELECT COUNT(*), SUM(nv), MIN(fk) FROM t WHERE e = 2"},
		{"index-direct", "SELECT /*+ INDEX(t r) */ g, COUNT(*), SUM(nv), AVG(f) FROM t WHERE r < 150000 GROUP BY g"},
		{"index-hashed", "SELECT /*+ INDEX(t r) */ h, COUNT(*), SUM(nv), MIN(f) FROM t WHERE r < 150000 AND a < 8 GROUP BY h"},
		{"index-float-sum", "SELECT /*+ INDEX(t r) */ SUM(f), AVG(f), MIN(nv), COUNT(*) FROM t WHERE r < 150000"},
		{"index-count", "SELECT /*+ INDEX(t r) */ COUNT(*) FROM t WHERE r < 150000 AND a < 8"},
		{"index-projection", "SELECT /*+ INDEX(t r) */ r, nv, f FROM t WHERE r < 20000 AND a < 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want fragmentOutcome
			for _, cores := range []int{1, 2, 3} {
				got := runFragmentQuery(t, eng, tc.sql, cores)
				windows, indexed := 0, false
				for _, sc := range got.scans {
					indexed = indexed || sc.IndexProbes > 0
					windows = max(windows, int(sc.Batches))
					if want := min(cores, int(sc.Batches)); sc.Cores != want {
						t.Errorf("%d cores: %s ran on %d, want %d", cores, sc.Name, sc.Cores, want)
					}
				}
				if indexed != strings.HasPrefix(tc.name, "index-") {
					t.Errorf("%d cores: index path taken = %v", cores, indexed)
				}
				if cores == 1 {
					if len(got.rows) == 0 || windows < 3 {
						t.Fatalf("degenerate case: %d rows over %d windows", len(got.rows), windows)
					}
					want = got
					continue
				}
				if fmt.Sprint(got.rows) != fmt.Sprint(want.rows) {
					t.Errorf("%d cores: rows differ from 1 core's", cores)
				}
				if fmt.Sprint(got.counters) != fmt.Sprint(want.counters) {
					t.Errorf("%d cores: counters differ:\ngot  %v\nwant %v", cores, got.counters, want.counters)
				}
			}
		})
	}
}

// fragmentOutcome is a query's rows and per-operator counters, with its
// scans' stats.
type fragmentOutcome struct {
	rows     [][]string
	counters []string
	scans    []OperatorStats
}

func runFragmentQuery(t *testing.T, eng *Engine, sql string, cores int) fragmentOutcome {
	t.Helper()
	cfg := NativeConfig()
	cfg.Cores = cores
	res, err := eng.QueryWith(context.Background(), sql, QueryOptions{Config: &cfg})
	if err != nil {
		t.Fatalf("%s on %d cores: %v", sql, cores, err)
	}
	out := fragmentOutcome{rows: res.Rows}
	for _, op := range res.Operators {
		out.counters = append(out.counters, fmt.Sprintf("%s in=%d out=%d batches=%d groups=%d probe=%d bloom=%d/%d pruned=%d bytes=%d probes=%d idxrows=%d",
			op.Name, op.RowsIn, op.RowsOut, op.Batches, op.Groups, op.ProbeRows, op.BloomPass, op.BloomChecks, op.ChunksPruned, op.BytesScanned,
			op.IndexProbes, op.IndexRows))
		// Only a scan leaf reports the cores it ran on.
		if op.Cores > 0 {
			out.scans = append(out.scans, op)
		}
	}
	return out
}

// projectionOutcome is what a projection must reproduce on any core count
// and execution path: its rows kept and streamed, batch by batch, the
// count, and the counters of the projection and its scan.
type projectionOutcome struct {
	count           int64
	rows            [][]string
	streamed        [][][]string
	projIn, projOut int64
	// pruned, windows and cores are the (probe) scan's.
	pruned, windows  int64
	cores            int
	streamedCount    int64
	streamedProjRows int64
}

func runProjection(t *testing.T, eng *Engine, sql string, cfg Config) projectionOutcome {
	t.Helper()
	var out projectionOutcome
	res, err := eng.QueryWith(context.Background(), sql, QueryOptions{Config: &cfg})
	if err != nil {
		t.Fatalf("%s (simulate=%v, %d cores): %v", sql, cfg.Simulate, cfg.Cores, err)
	}
	out.count, out.rows = res.Count, res.Rows
	for _, op := range res.Operators {
		if strings.HasPrefix(op.Name, "Projection[") {
			out.projIn, out.projOut = op.RowsIn, op.RowsOut
		}
		if op.Cores > 0 {
			out.pruned, out.windows, out.cores = op.ChunksPruned, op.Batches, op.Cores
		}
	}
	res, err = eng.QueryWith(context.Background(), sql, QueryOptions{Config: &cfg,
		Stream: func(_ []string, rows [][]string) error {
			out.streamed = append(out.streamed, rows)
			return nil
		}})
	if err != nil {
		t.Fatalf("%s streamed (simulate=%v, %d cores): %v", sql, cfg.Simulate, cfg.Cores, err)
	}
	out.streamedCount = res.Count
	for _, op := range res.Operators {
		if strings.HasPrefix(op.Name, "Projection[") {
			out.streamedProjRows = op.RowsOut
		}
	}
	return out
}

// TestParallelProjectionFragmentsMatchSingleCore runs projection fragments
// — scan, join probe, gather and rendering of each window on the core that
// scanned it — natively on 1, 2 and 3 cores and on the simulated path, kept
// and streamed, and requires identical rows in identical order, the same
// streamed batches (one per window that has rows), an exact count and the
// projection's RowsOut at its cap: no window is handed on past it.
func TestParallelProjectionFragmentsMatchSingleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	eng := buildFragmentEngine(t)
	cases := []struct {
		name, sql string
		// kept is the cap on the rows a kept result holds; 0 keeps them
		// all.
		kept  int64
		check func(t *testing.T, o projectionOutcome)
	}{
		{name: "cap-mid-window", sql: "SELECT g, nv, f FROM t WHERE a < 5",
			kept: 100_000,
			check: func(t *testing.T, o projectionOutcome) {
				end := 0
				for _, b := range o.streamed {
					if end += len(b); end == 100_000 {
						t.Error("the cap falls on a window boundary")
					}
				}
			}},
		{name: "join-duplicate-keys", sql: "SELECT t.g, m.w, t.nv, m.k FROM t JOIN m ON t.k = m.k WHERE t.a < 3"},
		{name: "join-limit", sql: "SELECT t.g, m.w, t.f FROM t JOIN m ON t.k = m.k WHERE t.a < 5 LIMIT 7000",
			kept: 7000,
			check: func(t *testing.T, o projectionOutcome) {
				if o.cores != 1 {
					t.Errorf("the probe scan under a LIMIT ran on %d cores", o.cores)
				}
			}},
		{name: "nulls", sql: "SELECT nk, nv, fk FROM t WHERE a < 2"},
		{name: "empty-window", sql: "SELECT a, nv FROM t WHERE e = 2 AND a < 3",
			check: func(t *testing.T, o projectionOutcome) {
				if o.windows != 5 || len(o.streamed) != 4 {
					t.Errorf("%d windows streamed %d batches, want 5 and 4", o.windows, len(o.streamed))
				}
			}},
		{name: "pruned-windows", sql: "SELECT s, nv FROM t WHERE s >= 100 AND s < 140",
			check: func(t *testing.T, o projectionOutcome) {
				if o.pruned != 3 || len(o.streamed) != 2 {
					t.Errorf("pruned %d windows, streamed %d batches; want 3 and 2", o.pruned, len(o.streamed))
				}
			}},
		{name: "limit", sql: "SELECT g, nv FROM t WHERE a < 5 LIMIT 10",
			kept: 10,
			check: func(t *testing.T, o projectionOutcome) {
				if o.cores != 1 {
					t.Errorf("a LIMIT scan ran on %d cores", o.cores)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want projectionOutcome
			sim := DefaultConfig()
			for i, cfg := range []Config{NativeConfig(), NativeConfig(), NativeConfig(), sim} {
				if !cfg.Simulate {
					cfg.Cores = i + 1
				}
				got := runProjection(t, eng, tc.sql, cfg)
				kept := got.count
				if tc.kept > 0 {
					kept = tc.kept
				}
				if int64(len(got.rows)) != kept || got.projOut != kept {
					t.Errorf("simulate=%v, %d cores: %d rows kept, RowsOut %d; want %d",
						cfg.Simulate, cfg.Cores, len(got.rows), got.projOut, kept)
				}
				var streamed [][]string
				for _, b := range got.streamed {
					streamed = append(streamed, b...)
				}
				if int64(len(streamed)) != got.streamedProjRows || got.streamedCount != got.count {
					t.Errorf("simulate=%v, %d cores: streamed %d rows, RowsOut %d, count %d; want count %d",
						cfg.Simulate, cfg.Cores, len(streamed), got.streamedProjRows, got.streamedCount, got.count)
				}
				if len(streamed) < len(got.rows) || !slices.EqualFunc(got.rows, streamed[:len(got.rows)], slices.Equal) {
					t.Errorf("simulate=%v, %d cores: kept rows are not the stream's first rows", cfg.Simulate, cfg.Cores)
				}
				if tc.check != nil {
					tc.check(t, got)
				}
				if i == 0 {
					if got.count == 0 {
						t.Fatal("degenerate case: no rows")
					}
					want = got
					continue
				}
				got.cores = want.cores
				if fmt.Sprint(got.rows, got.streamed) != fmt.Sprint(want.rows, want.streamed) {
					t.Errorf("simulate=%v, %d cores: rows or streamed batches differ from one native core's", cfg.Simulate, cfg.Cores)
				}
				got.rows, got.streamed = want.rows, want.streamed
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("simulate=%v, %d cores: count or counters differ from one native core's", cfg.Simulate, cfg.Cores)
				}
			}
		})
	}
	// On one core a LIMIT projection renders, and charges, its LIMIT rows
	// only: a window's worth would outgrow this budget.
	g := DefaultGovernance()
	g.MemBudgetBytes = 1 << 20
	eng.SetGovernance(g)
	defer eng.SetGovernance(DefaultGovernance())
	for _, cfg := range []Config{NativeConfig(), DefaultConfig()} {
		if got := runProjection(t, eng, "SELECT g, nv FROM t WHERE a < 5 LIMIT 10", cfg); len(got.rows) != 10 {
			t.Errorf("simulate=%v: %d rows under LIMIT 10", cfg.Simulate, len(got.rows))
		}
	}
}

// TestFailedFragmentLeavesNothingRunning fails aggregation fragments
// while both cores run them — every window's partial over the memory
// budget, a cancel mid-query, a panic injected into a morsel, a failed
// index probe and a panic in an index scan's window — then projection
// fragments — rows over the budget, a panic in a morsel, and a panic and
// an error injected into the join probe of a projection over a join — and
// requires the typed error each time and, before the next query, no
// goroutine beyond those running before: execute joins every helper on
// every path.
func TestFailedFragmentLeavesNothingRunning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng := buildFragmentEngine(t)
	// Every window makes ~64 Ki hashed groups, so this query runs long
	// enough to cancel mid-way and outgrows a small budget in every window.
	const sql = "SELECT h, COUNT(*), SUM(nv), MIN(f) FROM t WHERE a >= 0 GROUP BY h"
	cfg := NativeConfig()
	cfg.Cores = 2
	run := func(ctx context.Context) error {
		_, err := eng.QueryWith(ctx, sql, QueryOptions{Config: &cfg})
		return err
	}
	if err := run(context.Background()); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: %d goroutines, %d before\n%s", what, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}

	g := DefaultGovernance()
	g.MemBudgetBytes = 4 << 20 // about 20 Ki groups
	eng.SetGovernance(g)
	var mbe *MemoryBudgetError
	if err := run(context.Background()); !errors.As(err, &mbe) {
		t.Errorf("over budget: err = %v, want *MemoryBudgetError", err)
	}
	settled("over budget")
	eng.SetGovernance(DefaultGovernance())

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(time.Duration(i+1)*time.Millisecond, cancel)
		if err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled after %d ms: err = %v, want context.Canceled", i+1, err)
		}
		cancel()
		settled("cancelled")
	}

	for n := 1; n <= 5; n++ {
		faultinject.Arm(faultinject.SiteParallelMorsel, n, faultinject.ModePanic)
		var qe *QueryError
		if err := run(context.Background()); !errors.As(err, &qe) {
			t.Errorf("panic in morsel %d: err = %v, want *QueryError", n, err)
		}
		faultinject.Reset()
		settled("morsel panic")
	}
	// The index path at Cores 2: a failed probe at Open, then a panic in
	// each of its windows, those the helper runs included.
	const indexSQL = "SELECT /*+ INDEX(t r) */ h, COUNT(*), SUM(nv) FROM t WHERE r < 150000 AND a < 8 GROUP BY h"
	runIndex := func() error {
		_, err := eng.QueryWith(context.Background(), indexSQL, QueryOptions{Config: &cfg})
		return err
	}
	faultinject.Arm(faultinject.SiteIndexProbe, 1, faultinject.ModeError)
	var fe *faultinject.Error
	if err := runIndex(); !errors.As(err, &fe) || fe.Site != faultinject.SiteIndexProbe {
		t.Errorf("failed index probe: err = %v, want injected index.probe failure", err)
	}
	faultinject.Reset()
	settled("index probe")
	for n := 1; n <= 5; n++ {
		faultinject.Arm(faultinject.SiteParallelMorsel, n, faultinject.ModePanic)
		var qe *QueryError
		if err := runIndex(); !errors.As(err, &qe) {
			t.Errorf("panic in index window %d: err = %v, want *QueryError", n, err)
		}
		faultinject.Reset()
		settled("index window panic")
	}
	// Projection fragments at Cores 2: a projection, and one over a join,
	// whose windows the helper gathers and renders.
	const projSQL = "SELECT h, nv, f FROM t WHERE a >= 0"
	const projJoinSQL = "SELECT t.h, d.v, t.f FROM t JOIN d ON t.k = d.k WHERE t.a < 8"
	runProj := func(sql string) error {
		_, err := eng.QueryWith(context.Background(), sql, QueryOptions{Config: &cfg})
		return err
	}
	g.MemBudgetBytes = 4 << 20 // about 40 000 rows
	eng.SetGovernance(g)
	if err := runProj(projSQL); !errors.As(err, &mbe) {
		t.Errorf("projection over budget: err = %v, want *MemoryBudgetError", err)
	}
	settled("projection over budget")
	eng.SetGovernance(DefaultGovernance())
	for n := 1; n <= 5; n++ {
		faultinject.Arm(faultinject.SiteParallelMorsel, n, faultinject.ModePanic)
		var qe *QueryError
		if err := runProj(projSQL); !errors.As(err, &qe) {
			t.Errorf("panic in projection morsel %d: err = %v, want *QueryError", n, err)
		}
		faultinject.Reset()
		settled("projection morsel panic")
		faultinject.Arm(faultinject.SiteJoinProbeBatch, n, faultinject.ModePanic)
		if err := runProj(projJoinSQL); !errors.As(err, &qe) {
			t.Errorf("panic in the join probe of projection window %d: err = %v, want *QueryError", n, err)
		}
		faultinject.Reset()
		settled("projection join probe panic")
		faultinject.Arm(faultinject.SiteJoinProbeBatch, n, faultinject.ModeError)
		if err := runProj(projJoinSQL); !errors.As(err, &fe) || fe.Site != faultinject.SiteJoinProbeBatch {
			t.Errorf("failed join probe of projection window %d: err = %v, want injected join.probe.batch failure", n, err)
		}
		faultinject.Reset()
		settled("projection join probe failure")
	}
	for _, sql := range []string{sql, indexSQL, projSQL, projJoinSQL} {
		if _, err := eng.QueryWith(context.Background(), sql, QueryOptions{Config: &cfg}); err != nil {
			t.Errorf("after the failures: %s: %v", sql, err)
		}
	}
}
