// Command fusedscan-smoke runs a tiny fixed benchmark — three queries
// over a deterministic generated table — and emits the simulated metrics
// as JSON. Because the machine model is deterministic, the output is
// byte-stable across runs: the checked-in BENCH_SMOKE.json acts as a
// performance-regression baseline that `make bench-smoke` verifies.
//
//	fusedscan-smoke                  # print JSON to stdout
//	fusedscan-smoke -out BENCH.json  # write the baseline file
//
// With -native the tool instead benchmarks the native turbo path for
// real: it times the same two-predicate COUNT(*) through the native
// kernels and the emulated fused kernel (best of -reps wall-clock runs,
// after a warm-up), records the speedup, and runs a clustered-data query
// whose zone-map prune counts are deterministic. Each native rep is
// followed by a roofline read: a plain []uint64 sum over as many bytes as
// the query scans, on as many cores. -check compares a current run
// against a checked-in BENCH_NATIVE.json: exact fields (counts, chunks
// pruned) must match, each native leg's wall/roofline ratio must not
// regress by more than -tol, and the speedup floors must hold. The ratio
// cancels the box's phase, which a wall from another sitting does not.
//
//	fusedscan-smoke -native -out BENCH_NATIVE.json     # write the baseline
//	fusedscan-smoke -native -check BENCH_NATIVE.json   # gate regressions
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fusedscan"
)

const (
	smokeRows = 1 << 18
	smokeSeed = 1
)

// smokeQuery is one benchmark point: a statement run under a named
// engine config.
type smokeQuery struct {
	Name   string `json:"name"`
	Config string `json:"config"`
	SQL    string `json:"sql"`
}

// queries covers the three pipeline shapes worth watching: a count-only
// fused scan (no positions materialized), an aggregate over a fused
// chain, and a LIMIT that must short-circuit the scan. The same
// multi-predicate count also runs on the scalar path so the fused
// speedup stays visible in the baseline.
var queries = []smokeQuery{
	{"count-3pred-fused", "avx512-512", "SELECT COUNT(*) FROM demo WHERE a = 5 AND b = 5 AND c = 5"},
	{"count-3pred-sisd", "sisd", "SELECT COUNT(*) FROM demo WHERE a = 5 AND b = 5 AND c = 5"},
	{"agg-sum-avg", "avx512-512", "SELECT SUM(d), AVG(d) FROM demo WHERE a = 5 AND b = 5"},
	{"limit-short-circuit", "avx512-512", "SELECT a, d FROM demo WHERE a = 5 ORDER BY d LIMIT 10"},
	// The multi-table pipeline: hash join with a residual col-vs-col
	// predicate, a Bloom prefilter transferred from the filtered build
	// side into the probe scan, and a grouped SUM sink.
	{"join-groupby-bloom", "avx512-512", "SELECT demo.a, SUM(dim.w) FROM demo JOIN dim ON demo.d = dim.d AND demo.b < dim.v WHERE demo.b = 5 AND dim.v <= 500 GROUP BY demo.a"},
}

// smokeResult is the JSON record for one query: only simulated,
// deterministic quantities — never wall-clock — so the file is stable.
type smokeResult struct {
	Name            string  `json:"name"`
	Config          string  `json:"config"`
	SQL             string  `json:"sql"`
	Count           int64   `json:"count"`
	SimRuntimeMs    float64 `json:"sim_runtime_ms"`
	SimGBs          float64 `json:"sim_gbs"`
	Mispredicts     uint64  `json:"mispredicts"`
	DRAMBytes       uint64  `json:"dram_bytes"`
	PipelineBatches int64   `json:"pipeline_batches"`
	ScanRowsOut     int64   `json:"scan_rows_out"`
	// Join pipeline counters; omitted (zero) for single-table entries so
	// their baseline records stay byte-identical.
	BuildRows   int64 `json:"build_rows,omitempty"`
	ProbeRows   int64 `json:"probe_rows,omitempty"`
	BloomChecks int64 `json:"bloom_checks,omitempty"`
	BloomPass   int64 `json:"bloom_pass,omitempty"`
	Groups      int64 `json:"groups,omitempty"`
}

type smokeReport struct {
	Rows    int           `json:"rows"`
	Seed    int64         `json:"seed"`
	Results []smokeResult `json:"results"`
}

func buildDemo(eng *fusedscan.Engine) error {
	rng := rand.New(rand.NewSource(smokeSeed))
	a := make([]int32, smokeRows)
	b := make([]int32, smokeRows)
	c := make([]int32, smokeRows)
	d := make([]int32, smokeRows)
	pick := func(sel float64) int32 {
		if rng.Float64() < sel {
			return 5
		}
		return rng.Int31n(900) + 100
	}
	for i := 0; i < smokeRows; i++ {
		a[i] = pick(0.5)
		b[i] = pick(0.1)
		c[i] = pick(0.01)
		d[i] = rng.Int31n(1000)
	}
	tb := eng.CreateTable("demo")
	tb.Int32("a", a)
	tb.Int32("b", b)
	tb.Int32("c", c)
	tb.Int32("d", d)
	return tb.Finish()
}

// buildDim adds the join dimension table. It draws from its own rand
// source, after buildDemo has fully consumed its stream, so the demo
// data — and every pre-join baseline entry — stays byte-identical.
func buildDim(eng *fusedscan.Engine) error {
	rng := rand.New(rand.NewSource(smokeSeed + 1))
	const dimRows = 4096
	d := make([]int32, dimRows)
	v := make([]int32, dimRows)
	w := make([]int32, dimRows)
	for i := 0; i < dimRows; i++ {
		d[i] = rng.Int31n(1000) // same domain as demo.d: duplicate keys fan out
		v[i] = rng.Int31n(1000)
		w[i] = rng.Int31n(100)
	}
	tb := eng.CreateTable("dim")
	tb.Int32("d", d)
	tb.Int32("v", v)
	tb.Int32("w", w)
	return tb.Finish()
}

func configFor(name string) (fusedscan.Config, error) {
	switch name {
	case "avx512-512":
		return fusedscan.Config{Simulate: true, UseFused: true, RegisterWidth: 512}, nil
	case "sisd":
		return fusedscan.Config{Simulate: true, UseFused: false, RegisterWidth: 512}, nil
	}
	return fusedscan.Config{}, fmt.Errorf("unknown config %q", name)
}

func run() (*smokeReport, error) {
	eng := fusedscan.NewEngine()
	if err := buildDemo(eng); err != nil {
		return nil, err
	}
	if err := buildDim(eng); err != nil {
		return nil, err
	}
	rep := &smokeReport{Rows: smokeRows, Seed: smokeSeed}
	for _, q := range queries {
		cfg, err := configFor(q.Config)
		if err != nil {
			return nil, err
		}
		if err := eng.SetConfig(cfg); err != nil {
			return nil, err
		}
		res, err := eng.QueryContext(context.Background(), q.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		sr := smokeResult{
			Name:         q.Name,
			Config:       q.Config,
			SQL:          q.SQL,
			Count:        res.Count,
			SimRuntimeMs: res.Report.RuntimeMs,
			SimGBs:       res.Report.AchievedGBs,
			Mispredicts:  res.Report.BranchMispredicts,
			DRAMBytes:    res.Report.DRAMBytes,
		}
		for _, op := range res.Operators {
			sr.PipelineBatches += op.Batches
			sr.BuildRows += op.BuildRows
			sr.ProbeRows += op.ProbeRows
			sr.BloomChecks += op.BloomChecks
			sr.BloomPass += op.BloomPass
			sr.Groups += op.Groups
		}
		if n := len(res.Operators); n > 0 {
			// The scan is the deepest operator in the pipeline walk.
			sr.ScanRowsOut = res.Operators[n-1].RowsOut
		}
		rep.Results = append(rep.Results, sr)
	}
	return rep, nil
}

// nativeRows is larger than the simulated smoke table so the wall-clock
// medians are not dominated by fixed query overhead.
const nativeRows = 1 << 20

// nativeResult records one timed leg of the native benchmark. Wall-clock
// values vary run to run; Count, Encoding and BytesScanned are exact and
// must stay stable. WallNsBest is the fastest of -reps runs after a
// warm-up — the best case is far less sensitive to machine load than a
// mean or median, which is what a regression gate needs.
type nativeResult struct {
	Name       string  `json:"name"`
	Path       string  `json:"path"`
	SQL        string  `json:"sql"`
	Count      int64   `json:"count"`
	WallNsBest int64   `json:"wall_ns_best"`
	WallMs     float64 `json:"wall_ms"`
	// The bytes-touched axis (DESIGN.md §15): Encoding is the scan leaf's
	// storage encoding, BytesScanned the stored bytes its predicate
	// columns covered (packed columns count 64-bit word spans), and
	// EffDecodeGBs the effective decode throughput — decoded-equivalent
	// predicate bytes divided by the best wall time, so a packed scan
	// that beats plain shows up as super-memory-bandwidth decode rate.
	Encoding     string  `json:"encoding"`
	BytesScanned int64   `json:"bytes_scanned"`
	EffDecodeGBs float64 `json:"eff_decode_gbs"`
	// RooflineNsBest is the best roofline read of BytesScanned bytes,
	// timed right after each rep of the native legs; WallPerRoofline is
	// the median over reps of wall / roofline, the figure -check gates.
	RooflineNsBest  int64   `json:"roofline_ns_best,omitempty"`
	WallPerRoofline float64 `json:"wall_per_roofline,omitempty"`
}

// nativeReport is the BENCH_NATIVE.json schema. SpeedupFloor documents
// the gate -check enforces (the issue's 10x acceptance bound);
// PackedFloor is the scan-on-compressed bound — the packed native scan
// must beat the plain native scan by at least this factor. PackedSpeedup
// is the median over alternated plain/packed pairs of plain wall / packed
// wall (see pairedSpeedup).
type nativeReport struct {
	Rows          int            `json:"rows"`
	Seed          int64          `json:"seed"`
	Reps          int            `json:"reps"`
	Results       []nativeResult `json:"results"`
	Speedup       float64        `json:"speedup_native_vs_emulated"`
	SpeedupFloor  float64        `json:"speedup_floor"`
	PackedSpeedup float64        `json:"speedup_packed_vs_plain_native"`
	PackedFloor   float64        `json:"packed_speedup_floor"`
	Pruning       pruningResult  `json:"pruning"`
	PruningPacked pruningResult  `json:"pruning_packed"`
	// The secondary-index axis (DESIGN.md §16): a cost-chosen point lookup
	// must beat the native scan by IndexFloor, and a forced index hint at
	// 40% selectivity must stay at least IndexLowSelFloor slower than the
	// scan it overrides — the dolt lesson, kept visible in the baseline.
	IndexSpeedup        float64 `json:"speedup_index_vs_native_scan"`
	IndexFloor          float64 `json:"index_speedup_floor"`
	IndexLowSelSlowdown float64 `json:"slowdown_forced_index_lowsel"`
	IndexLowSelFloor    float64 `json:"forced_index_lowsel_floor"`
}

// pruningResult is fully deterministic: clustered data, fixed chunking.
type pruningResult struct {
	SQL          string `json:"sql"`
	Count        int64  `json:"count"`
	Chunks       int64  `json:"chunks"`
	ChunksPruned int64  `json:"chunks_pruned"`
	BytesScanned int64  `json:"bytes_scanned"`
}

// buildNativeTables registers the same generated data twice: "demo" in
// the plain encoding and "pdemo" bit-packed (values stay below 1024, so
// every column packs at width 16 — the scan reads a quarter of the
// bytes). Identical data makes every count a differential check.
func buildNativeTables(eng *fusedscan.Engine) error {
	rng := rand.New(rand.NewSource(smokeSeed))
	a := make([]int32, nativeRows)
	b := make([]int32, nativeRows)
	clustered := make([]int32, nativeRows)
	for i := 0; i < nativeRows; i++ {
		if rng.Float64() < 0.5 {
			a[i] = 5
		} else {
			a[i] = rng.Int31n(900) + 100
		}
		if rng.Float64() < 0.5 {
			b[i] = 5
		} else {
			b[i] = rng.Int31n(900) + 100
		}
		clustered[i] = int32(i / 1000) // sorted: zone maps prune point lookups
	}
	for _, tbl := range []struct {
		name string
		pack bool
	}{{"demo", false}, {"pdemo", true}} {
		tb := eng.CreateTable(tbl.name)
		tb.Int32("a", a)
		tb.Int32("b", b)
		tb.Int32("k", clustered)
		if tbl.pack {
			tb.Pack()
		}
		if err := tb.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// indexRows sizes the secondary-index benchmark table. Large enough that
// a full native scan takes real wall-clock, so the O(log n) point lookup
// has something to beat.
const indexRows = 10_000_000

// buildIndexTable registers "idemo": indexRows rows whose key column is a
// random permutation of 0..indexRows-1. Unique keys make a point lookup
// maximally selective; the shuffle defeats zone-map pruning, so the scan
// leg pays for the whole table and the comparison is honest.
func buildIndexTable(eng *fusedscan.Engine) error {
	rng := rand.New(rand.NewSource(smokeSeed + 2))
	perm := rng.Perm(indexRows)
	k := make([]int32, indexRows)
	for i, p := range perm {
		k[i] = int32(p)
	}
	tb := eng.CreateTable("idemo")
	tb.Int32("k", k)
	tb.Index("k")
	return tb.Finish()
}

// bestWallNs runs the query once to warm up (plan cache, page faults),
// then reps more times, returning the fastest duration and the (stable)
// count. With a non-nil roof it also reads the query's scanned bytes of
// roof right after each rep, and returns the best roofline time and the
// median over reps of wall / roofline: each pair shares the box's phase,
// and the median drops a pair that straddled a phase change.
func bestWallNs(eng *fusedscan.Engine, sql string, reps int, roof []uint64) (best, bestRoof int64, ratio float64, last *fusedscan.Result, err error) {
	best, bestRoof = 1<<63-1, 1<<63-1
	var ratios []float64
	for i := 0; i <= reps; i++ {
		start := time.Now()
		res, err := eng.QueryContext(context.Background(), sql)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		d := time.Since(start).Nanoseconds()
		last = res
		words := roof[:min(len(roof), int(scanLeaf(res).BytesScanned/8))]
		if i == 0 {
			// Warm-up. The first roofline reads after other work run up
			// to 2.5x slow (caches, idle threads). A collection then
			// keeps a GC cycle, which takes one of the roofline's cores,
			// out of the timed pairs.
			for j := 0; roof != nil && j < 4; j++ {
				readRoofline(words)
			}
			runtime.GC()
			continue
		}
		best = min(best, d)
		if roof != nil {
			r := readRoofline(words)
			bestRoof = min(bestRoof, r)
			ratios = append(ratios, float64(d)/float64(max(r, 1)))
		}
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		ratio = ratios[len(ratios)/2]
	}
	return best, bestRoof, ratio, last, nil
}

// pairedSpeedup times the plain and the packed query back to back, pairs
// times after a warm-up pair, and returns the median over pairs of plain
// wall / packed wall. The two legs of a pair share the box's phase, where
// two best walls timed seconds apart need not; the leg that runs first
// alternates from pair to pair. The engine must be on the native config.
func pairedSpeedup(eng *fusedscan.Engine, plainSQL, packedSQL string, pairs int) (float64, error) {
	sqls := [2]string{plainSQL, packedSQL}
	ratios := make([]float64, 0, pairs)
	for i := 0; i <= pairs; i++ {
		var ns [2]int64
		for k := range 2 {
			leg := k ^ i%2
			start := time.Now()
			if _, err := eng.QueryContext(context.Background(), sqls[leg]); err != nil {
				return 0, err
			}
			ns[leg] = time.Since(start).Nanoseconds()
		}
		if i > 0 {
			ratios = append(ratios, float64(ns[0])/float64(max(ns[1], 1)))
		}
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], nil
}

var roofSink atomic.Uint64 // keeps the roofline sums from being optimised away

// readRoofline times a plain sum over words split across GOMAXPROCS
// goroutines, as the native scan splits its chunks across cores: a phase
// in which the box gives this process fewer cycles slows both alike. Every
// goroutine ends before it returns.
func readRoofline(words []uint64) int64 {
	cores := runtime.GOMAXPROCS(0)
	part := (len(words) + cores - 1) / cores
	var wg sync.WaitGroup
	start := time.Now()
	for lo := 0; lo < len(words); lo += part {
		wg.Add(1)
		go func(w []uint64) {
			defer wg.Done()
			var s0, s1, s2, s3 uint64
			for i := 0; i+3 < len(w); i += 4 {
				s0 += w[i]
				s1 += w[i+1]
				s2 += w[i+2]
				s3 += w[i+3]
			}
			roofSink.Add(s0 + s1 + s2 + s3)
		}(words[lo:min(lo+part, len(words))])
	}
	wg.Wait()
	return time.Since(start).Nanoseconds()
}

// scanLeaf returns the deepest operator in the pipeline walk — the scan.
func scanLeaf(res *fusedscan.Result) fusedscan.OperatorStats {
	if n := len(res.Operators); n > 0 {
		return res.Operators[n-1]
	}
	return fusedscan.OperatorStats{}
}

func runNative(reps int) (*nativeReport, error) {
	eng := fusedscan.NewEngine()
	if err := buildNativeTables(eng); err != nil {
		return nil, err
	}
	rep := &nativeReport{
		Rows: nativeRows, Seed: smokeSeed, Reps: reps,
		SpeedupFloor: 10, PackedFloor: 1.5,
	}
	// Decoded-equivalent bytes of the two predicate columns; the basis of
	// the effective-decode-throughput axis for every count leg.
	const decodedBytes = nativeRows * 4 * 2

	// The roofline buffer: the plain scan's bytes, filled so no read
	// lands on a shared zero page.
	roof := make([]uint64, decodedBytes/8)
	for i := range roof {
		roof[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	legs := []struct {
		path  string
		table string
		cfg   fusedscan.Config
		roof  []uint64
	}{
		{"native", "demo", fusedscan.NativeConfig(), roof},
		{"emulated", "demo", fusedscan.DefaultConfig(), nil},
		{"packed-native", "pdemo", fusedscan.NativeConfig(), roof},
	}
	for _, leg := range legs {
		if err := eng.SetConfig(leg.cfg); err != nil {
			return nil, err
		}
		q := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE a = 5 AND b = 5", leg.table)
		n := reps
		if leg.roof != nil {
			n = 5 * reps // a median of 5 pairs moved by a third between runs, of 25 by a few percent
		}
		ns, roofNs, ratio, res, err := bestWallNs(eng, q, n, leg.roof)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", leg.path, err)
		}
		leaf := scanLeaf(res)
		nr := nativeResult{
			Name: "count-2pred", Path: leg.path, SQL: q,
			Count: res.Count, WallNsBest: ns, WallMs: float64(ns) / 1e6,
			Encoding: leaf.Encoding, BytesScanned: leaf.BytesScanned,
		}
		if ns > 0 {
			nr.EffDecodeGBs = float64(decodedBytes) / float64(ns)
		}
		if leg.roof != nil {
			nr.RooflineNsBest, nr.WallPerRoofline = roofNs, ratio
		}
		rep.Results = append(rep.Results, nr)
	}
	for _, r := range rep.Results[1:] {
		if r.Count != rep.Results[0].Count {
			return nil, fmt.Errorf("count mismatch: %s %d, native %d",
				r.Path, r.Count, rep.Results[0].Count)
		}
	}
	if n := rep.Results[0].WallNsBest; n > 0 {
		rep.Speedup = float64(rep.Results[1].WallNsBest) / float64(n)
	}
	packed, err := pairedSpeedup(eng, rep.Results[0].SQL, rep.Results[2].SQL, 5*reps)
	if err != nil {
		return nil, err
	}
	rep.PackedSpeedup = packed

	// Clustered pruning legs, still on the native config: 16 chunks at the
	// default 1<<16 chunking, matches confined to one. The packed twin must
	// prune identically — its zone maps are assembled from chunk metadata —
	// while scanning a quarter of the bytes.
	if err := eng.SetConfig(fusedscan.NativeConfig()); err != nil {
		return nil, err
	}
	for _, leg := range []struct {
		table string
		out   *pruningResult
	}{{"demo", &rep.Pruning}, {"pdemo", &rep.PruningPacked}} {
		pq := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE k = 1040", leg.table)
		res, err := eng.QueryContext(context.Background(), pq)
		if err != nil {
			return nil, err
		}
		leaf := scanLeaf(res)
		*leg.out = pruningResult{
			SQL: pq, Count: res.Count, Chunks: nativeRows / (1 << 16),
			ChunksPruned: leaf.ChunksPruned, BytesScanned: leaf.BytesScanned,
		}
	}

	// Secondary-index legs, native config throughout. The point lookup is
	// left unhinted — the cost model must choose the index on its own (the
	// IndexProbes assertion below fails the run if it does not) — while
	// the low-selectivity pair pins both paths with hints to measure the
	// cost of overriding the planner.
	if err := buildIndexTable(eng); err != nil {
		return nil, err
	}
	rep.IndexFloor = 5
	rep.IndexLowSelFloor = 1.2
	pointLit := indexRows / 3
	lowSelLit := 2 * indexRows / 5
	idxLegs := []struct {
		name, path, sql string
	}{
		{"point-lookup", "index-point",
			fmt.Sprintf("SELECT COUNT(*) FROM idemo WHERE k = %d", pointLit)},
		{"point-lookup", "scan-point",
			fmt.Sprintf("SELECT /*+ NO_INDEX */ COUNT(*) FROM idemo WHERE k = %d", pointLit)},
		{"lowsel-40pct", "index-forced-lowsel",
			fmt.Sprintf("SELECT /*+ INDEX(idemo k) */ COUNT(*) FROM idemo WHERE k < %d", lowSelLit)},
		{"lowsel-40pct", "scan-lowsel",
			fmt.Sprintf("SELECT /*+ NO_INDEX */ COUNT(*) FROM idemo WHERE k < %d", lowSelLit)},
	}
	for _, leg := range idxLegs {
		ns, _, _, res, err := bestWallNs(eng, leg.sql, reps, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", leg.path, err)
		}
		var probes int64
		for _, op := range res.Operators {
			probes += op.IndexProbes
		}
		wantIndex := leg.path == "index-point" || leg.path == "index-forced-lowsel"
		if wantIndex && probes == 0 {
			return nil, fmt.Errorf("%s: planner did not take the index path", leg.path)
		}
		if !wantIndex && probes != 0 {
			return nil, fmt.Errorf("%s: NO_INDEX leg probed the index", leg.path)
		}
		leaf := scanLeaf(res)
		rep.Results = append(rep.Results, nativeResult{
			Name: leg.name, Path: leg.path, SQL: leg.sql,
			Count: res.Count, WallNsBest: ns, WallMs: float64(ns) / 1e6,
			Encoding: leaf.Encoding, BytesScanned: leaf.BytesScanned,
		})
	}
	for _, pair := range [][2]string{
		{"index-point", "scan-point"},
		{"index-forced-lowsel", "scan-lowsel"},
	} {
		a, b := resultByPath(rep, pair[0]), resultByPath(rep, pair[1])
		if a.Count != b.Count {
			return nil, fmt.Errorf("count mismatch: %s %d, %s %d", pair[0], a.Count, pair[1], b.Count)
		}
	}
	if n := resultByPath(rep, "index-point").WallNsBest; n > 0 {
		rep.IndexSpeedup = float64(resultByPath(rep, "scan-point").WallNsBest) / float64(n)
	}
	if n := resultByPath(rep, "scan-lowsel").WallNsBest; n > 0 {
		rep.IndexLowSelSlowdown = float64(resultByPath(rep, "index-forced-lowsel").WallNsBest) / float64(n)
	}
	return rep, nil
}

// checkNative gates a current run against the checked-in baseline:
// deterministic fields exactly, each native leg's wall/roofline ratio
// within tol of the baseline's, speedups above their floors.
func checkNative(cur *nativeReport, baselinePath string, tol float64) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base nativeReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	for _, path := range []string{"native", "emulated", "packed-native"} {
		b, c := resultByPath(&base, path), resultByPath(cur, path)
		if b == nil || c == nil {
			return fmt.Errorf("missing %q leg in baseline or current run", path)
		}
		if b.Count != c.Count {
			return fmt.Errorf("%s count = %d, baseline %d", path, c.Count, b.Count)
		}
		if b.BytesScanned != c.BytesScanned || b.Encoding != c.Encoding {
			return fmt.Errorf("%s scanned %d bytes as %q, baseline %d as %q",
				path, c.BytesScanned, c.Encoding, b.BytesScanned, b.Encoding)
		}
	}
	for _, path := range []string{"native", "packed-native"} {
		b, c := resultByPath(&base, path), resultByPath(cur, path)
		if b.WallPerRoofline == 0 {
			return fmt.Errorf("%s leg of %s has no wall_per_roofline; regenerate the baseline", path, baselinePath)
		}
		if limit := b.WallPerRoofline * (1 + tol); c.WallPerRoofline > limit {
			return fmt.Errorf("%s regressed against the roofline: wall is %.2fx a []uint64 read of its bytes (best %.3f ms vs %.3f ms), baseline %.2fx (tolerance %.0f%%)",
				path, c.WallPerRoofline, c.WallMs, float64(c.RooflineNsBest)/1e6, b.WallPerRoofline, 100*tol)
		}
	}
	if cur.Speedup < base.SpeedupFloor {
		return fmt.Errorf("native speedup %.1fx below the %.0fx floor", cur.Speedup, base.SpeedupFloor)
	}
	if cur.PackedSpeedup < base.PackedFloor {
		return fmt.Errorf("packed native speedup %.2fx below the %.1fx floor", cur.PackedSpeedup, base.PackedFloor)
	}
	// The index axis: counts are exact; the gates are the two ratios, which
	// cancel machine speed (the point lookup's absolute wall-clock is
	// microseconds and too noisy for a tolerance check).
	for _, path := range []string{"index-point", "scan-point", "index-forced-lowsel", "scan-lowsel"} {
		b, c := resultByPath(&base, path), resultByPath(cur, path)
		if b == nil || c == nil {
			return fmt.Errorf("missing %q leg in baseline or current run", path)
		}
		if b.Count != c.Count {
			return fmt.Errorf("%s count = %d, baseline %d", path, c.Count, b.Count)
		}
	}
	if cur.IndexSpeedup < base.IndexFloor {
		return fmt.Errorf("index point-lookup speedup %.1fx below the %.0fx floor",
			cur.IndexSpeedup, base.IndexFloor)
	}
	if cur.IndexLowSelSlowdown < base.IndexLowSelFloor {
		return fmt.Errorf("forced low-selectivity index hint was not slower than the scan it overrode: %.2fx vs the %.1fx floor",
			cur.IndexLowSelSlowdown, base.IndexLowSelFloor)
	}
	// Scan-on-compressed must never touch more bytes than the plain scan.
	plain, packed := resultByPath(cur, "native"), resultByPath(cur, "packed-native")
	if packed.BytesScanned > plain.BytesScanned {
		return fmt.Errorf("packed scan touched %d bytes, plain only %d", packed.BytesScanned, plain.BytesScanned)
	}
	if cur.PruningPacked.BytesScanned > cur.Pruning.BytesScanned {
		return fmt.Errorf("packed pruned scan touched %d bytes, plain only %d",
			cur.PruningPacked.BytesScanned, cur.Pruning.BytesScanned)
	}
	if cur.Pruning != base.Pruning {
		return fmt.Errorf("pruning result changed: %+v, baseline %+v", cur.Pruning, base.Pruning)
	}
	if cur.PruningPacked != base.PruningPacked {
		return fmt.Errorf("packed pruning result changed: %+v, baseline %+v", cur.PruningPacked, base.PruningPacked)
	}
	return nil
}

// resultByPath finds the leg with the given path label, or nil.
func resultByPath(r *nativeReport, path string) *nativeResult {
	for i := range r.Results {
		if r.Results[i].Path == path {
			return &r.Results[i]
		}
	}
	return nil
}

func main() {
	out := flag.String("out", "", "write JSON to this file instead of stdout")
	native := flag.Bool("native", false, "benchmark the native turbo path (wall-clock) instead of the simulated smoke suite")
	check := flag.String("check", "", "compare a -native run against this baseline JSON and exit non-zero on regression")
	tol := flag.Float64("tol", 0.20, "allowed native wall-clock regression fraction for -check")
	reps := flag.Int("reps", 5, "wall-clock repetitions per -native query (best is reported)")
	flag.Parse()

	var rep any
	var err error
	if *native {
		var nrep *nativeReport
		nrep, err = runNative(*reps)
		if err == nil && *check != "" {
			if cerr := checkNative(nrep, *check, *tol); cerr != nil {
				fmt.Fprintln(os.Stderr, "fusedscan-smoke: native benchmark gate failed:", cerr)
				os.Exit(1)
			}
			pl, pk := resultByPath(nrep, "native"), resultByPath(nrep, "packed-native")
			ip, sp := resultByPath(nrep, "index-point"), resultByPath(nrep, "scan-point")
			fmt.Printf("native benchmark gate ok: %.3f ms native (%.2fx its roofline read), %.1fx vs emulated, %d/%d chunks pruned\n",
				pl.WallMs, pl.WallPerRoofline, nrep.Speedup, nrep.Pruning.ChunksPruned, nrep.Pruning.Chunks)
			fmt.Printf("packed benchmark gate ok: %.3f ms packed vs %.3f ms plain native (%.2fx, floor %.1fx), %d vs %d bytes scanned, %.1f GB/s effective decode\n",
				pk.WallMs, pl.WallMs, nrep.PackedSpeedup, nrep.PackedFloor,
				pk.BytesScanned, pl.BytesScanned, pk.EffDecodeGBs)
			fmt.Printf("index benchmark gate ok: %.4f ms point lookup vs %.3f ms native scan (%.0fx, floor %.0fx); forced low-sel index %.2fx slower than scan (floor %.1fx)\n",
				ip.WallMs, sp.WallMs, nrep.IndexSpeedup, nrep.IndexFloor,
				nrep.IndexLowSelSlowdown, nrep.IndexLowSelFloor)
			return
		}
		rep = nrep
	} else {
		rep, err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusedscan-smoke:", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusedscan-smoke:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fusedscan-smoke:", err)
		os.Exit(1)
	}
}
