package main

// Layer probes: fixed-work measurements of one layer's public functions,
// run only in the traced run and only on the workload whose tables they
// use. Each reports a median of a few repetitions.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fusedscan"
	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/govern"
	"fusedscan/internal/jit"
	"fusedscan/internal/scan"
	"fusedscan/internal/server"
	"fusedscan/internal/vec"
)

// medianSeconds times f reps times and returns the median.
func medianSeconds(reps int, f func()) float64 {
	v := make([]float64, reps)
	for i := range v {
		start := time.Now()
		f()
		v[i] = since(start)
	}
	return medianFloat(v)
}

var sink uint64 // keeps probe loops from being optimised away

// probeRoofline measures what the box gives a trivial loop over the same
// number of bytes the wide table holds: a sequential sum and a popcount.
func probeRoofline(m *metricSet, bytes int) {
	words := make([]uint64, bytes/8)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	gb := float64(len(words)*8) / 1e9
	m.set("roofline.read_gb_per_s", gb/medianSeconds(5, func() {
		var s0, s1, s2, s3 uint64
		for i := 0; i+3 < len(words); i += 4 {
			s0 += words[i]
			s1 += words[i+1]
			s2 += words[i+2]
			s3 += words[i+3]
		}
		sink += s0 + s1 + s2 + s3
	}))
	m.set("roofline.popcnt_gb_per_s", gb/medianSeconds(5, func() {
		var n int
		for _, w := range words {
			n += bits.OnesCount64(w)
		}
		sink += uint64(n)
	}))
}

// probeScan drives scan.NewNative directly over the engine's columns:
// kernel speed with no plan, operator or result around it.
func probeScan(m *metricSet, e *env) error {
	wide, err := e.eng.Table("wide")
	if err != nil {
		return err
	}
	twin, err := e.eng.Table("wide_p")
	if err != nil {
		return err
	}
	rows := float64(wide.Rows())
	chain := func(t *column.Table, firstShare float64, preds int) scan.Chain {
		var ch scan.Chain
		for i, c := range t.Columns()[:preds] {
			share := 0.5
			if i == 0 {
				share = firstShare
			}
			ch = append(ch, scan.Pred{Col: c, Op: expr.Lt, Value: expr.NewInt(expr.Int32, int64(frac(scanDomain, share)))})
		}
		return ch
	}
	run := func(ch scan.Chain, positions bool) (float64, error) {
		k, err := scan.NewNative(ch)
		if err != nil {
			return 0, err
		}
		return medianSeconds(3, func() { sink += uint64(k.Run(nil, positions).Count) }), nil
	}
	type leg struct {
		metric    string
		ch        scan.Chain
		positions bool
		value     func(ch scan.Chain, s float64) float64
	}
	plainBytes := func(ch scan.Chain, s float64) float64 { return rows * 4 * float64(len(ch)) / 1e9 / s }
	perRow := func(_ scan.Chain, s float64) float64 { return s * 1e9 / rows }
	legs := []leg{
		{"scan.native.plain.gb_per_s", chain(wide, 0.01, 2), false, plainBytes},
		{"scan.native.plain.positions.gb_per_s", chain(wide, 0.1, 2), true, plainBytes},
		{"scan.native.packed.gb_per_s", chain(twin, 0.01, 2), false, plainBytes},
		{"scan.native.packed.stored_gb_per_s", chain(twin, 0.01, 2), false,
			func(ch scan.Chain, s float64) float64 { return float64(ch.ScanBytes()) / 1e9 / s }},
		{"scan.native.sel0001.ns_per_row", chain(wide, 0.00001, 2), false, perRow},
		{"scan.native.sel1.ns_per_row", chain(wide, 0.01, 2), false, perRow},
		{"scan.native.sel50.ns_per_row", chain(wide, 0.5, 2), false, perRow},
		{"scan.native.preds2.ns_per_row", chain(wide, 0.01, 2), false, perRow},
		{"scan.native.preds5.ns_per_row", chain(wide, 0.01, 5), false, perRow},
	}
	for _, l := range legs {
		s, err := run(l.ch, l.positions)
		if err != nil {
			return err
		}
		m.set(l.metric, l.value(l.ch, s))
	}
	a, _ := wide.Column("a")
	pa, _ := twin.Column("a")
	m.set("column.packed_bytes_per_plain_byte", float64(pa.ScanBytes())/float64(a.ScanBytes()))
	m.set("column.stats_ms_per_mrow", medianSeconds(3, func() { column.ComputeStats(a) })*1e3/(rows/1e6))
	return nil
}

// probeParallel runs one scan_heavy statement on one core and on two.
func probeParallel(m *metricSet, e *env) error {
	sql := e.ds.stmts[0].sql
	run := func(cores int) (wall, cpu float64, err error) {
		cfg := fusedscan.NativeConfig()
		cfg.Cores = cores
		cpu0 := cpuSeconds()
		wall = medianSeconds(5, func() {
			if _, qerr := e.eng.QueryWith(context.Background(), sql, fusedscan.QueryOptions{Config: &cfg}); qerr != nil {
				err = qerr
			}
		})
		return wall, cpuSeconds() - cpu0, err
	}
	w1, c1, err := run(1)
	if err != nil {
		return err
	}
	w2, c2, err := run(2)
	if err != nil {
		return err
	}
	m.set("parallel.scan_2c_speedup", w1/w2)
	if c1 > 0 {
		m.set("parallel.cpu_ratio_2c", c2/c1)
	}
	return nil
}

// probeSim guards the paper reproduction: one 3-predicate COUNT on the
// emulated path. Its simulated runtime depends only on the seed.
func probeSim(m *metricSet, e *env) error {
	wide := e.ds.table("wide")
	rows := wide.rows() / 16
	eng := fusedscan.NewEngine()
	tb := eng.CreateTable("sim")
	for _, c := range wide.cols[:3] {
		tb.Int32(c.name, c.vals[:rows])
	}
	if err := tb.Finish(); err != nil {
		return err
	}
	sql, _ := (&stmt{table: "sim", aggs: []aggSpec{{fn: "count"}}, limit: -1, where: []cmp{
		{col: "a", op: "<", v: frac(scanDomain, 0.1)}, {col: "b", op: "<", v: frac(scanDomain, 0.5)},
		{col: "c", op: "<", v: frac(scanDomain, 0.5)}}}).render(true)
	var simMs float64
	run := func(cfg fusedscan.Config) (float64, error) {
		if err := eng.SetConfig(cfg); err != nil {
			return 0, err
		}
		var qerr error
		s := medianSeconds(3, func() {
			res, err := eng.Query(sql)
			if err != nil {
				qerr = err
			} else if res.Report != nil {
				simMs = res.Report.RuntimeMs
			}
		})
		return s * 1e9 / float64(rows), qerr
	}
	fused, err := run(fusedscan.DefaultConfig())
	if err != nil {
		return err
	}
	m.set("sim.fused512.wall_ns_per_row", fused)
	m.set("sim.fused512.sim_runtime_ms", simMs)
	cfg := fusedscan.DefaultConfig()
	cfg.UseFused = false
	sisd, err := run(cfg)
	if err != nil {
		return err
	}
	m.set("sim.sisd.wall_ns_per_row", sisd)

	t, err := eng.Table("sim")
	if err != nil {
		return err
	}
	var ch scan.Chain
	for _, c := range t.Columns() {
		ch = append(ch, scan.Pred{Col: c, Op: expr.Lt, Value: expr.NewInt(expr.Int32, 100)})
	}
	var cerr error
	m.set("sim.jit_compile_ns", medianSeconds(5, func() {
		if _, _, err := jit.NewCompiler().CompileChain(ch, vec.W512, vec.IsaAVX512); err != nil {
			cerr = err
		}
	})*1e9)
	return cerr
}

// probeIndexPoint times Index.Probe(Eq) on the workload's unique key.
func probeIndexPoint(m *metricSet, e *env, table, col string) {
	ix := e.eng.LookupIndex(table, col)
	if ix == nil {
		return
	}
	r := newRng(1, "index-probe")
	const n = 2000
	lat := make([]int64, n)
	for i := range lat {
		v := expr.NewInt(expr.Int32, int64(r.intn(ix.Rows())))
		start := time.Now()
		pos, _ := ix.Probe(expr.Eq, v)
		lat[i] = time.Since(start).Nanoseconds()
		sink += uint64(len(pos))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	m.set("index.probe_point_ns", float64(quantile(lat, 0.5)))
	m.set("index.bytes_per_row", float64(ix.Bytes())/float64(ix.Rows()))
}

// probeIndexRange times a 1 % range probe per position returned, and the
// two regimes of the position-list intersection that follows it.
func probeIndexRange(m *metricSet, e *env) {
	ix := e.eng.LookupIndex("fact", "k")
	if ix == nil {
		return
	}
	bound := expr.NewInt(expr.Int32, int64(ix.Rows()/100))
	var n int
	s := medianSeconds(5, func() {
		pos, _ := ix.Probe(expr.Lt, bound)
		n = len(pos)
	})
	if n > 0 {
		m.set("index.probe_range_ns_per_pos", s*1e9/float64(n))
	}
	// Ascending lists: every 3rd and every 5th row (balanced: linear merge),
	// and every 997th against every 3rd (lopsided: gallop).
	every := func(step int) []uint32 {
		var out []uint32
		for p := 0; p < ix.Rows(); p += step {
			out = append(out, uint32(p))
		}
		return out
	}
	a, b, small := every(3), every(5), every(997)
	dst := make([]uint32, 0, len(a))
	merge := medianSeconds(5, func() { dst = scan.IntersectPositions(dst, a, b) })
	m.set("scan.intersect.merge_ns_per_elem", merge*1e9/float64(len(a)+len(b)))
	gallop := medianSeconds(5, func() { dst = scan.IntersectPositions(dst, small, a) })
	m.set("scan.intersect.gallop_ns_per_elem", gallop*1e9/float64(len(small)))
}

// probeGovern times an uncontended admit+release on a private governor
// configured like serve_mixed's.
func probeGovern(m *metricSet) {
	cfg := govern.Defaults()
	cfg.MaxConcurrent, cfg.MaxQueue = 2, 8
	g := govern.New(cfg)
	ctx := context.Background()
	const n = 20000
	s := medianSeconds(5, func() {
		for i := 0; i < n; i++ {
			release, err := g.AdmitFor(ctx, govern.AdmitInfo{Cheap: i%2 == 0})
			if err == nil {
				release()
			}
		}
	})
	m.set("govern.admit_ns", s*1e9/n)
}

// countingWriter is an in-memory http.ResponseWriter that keeps only the
// body size, for the streamed-response probe.
type countingWriter struct {
	header http.Header
	n      int64
}

func (w *countingWriter) Header() http.Header         { return w.header }
func (w *countingWriter) WriteHeader(int)             {}
func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// probeServer splits a point lookup's client latency into engine time,
// server overhead (decode + session + encode, through ServeHTTP with no
// socket) and the loopback round trip, and times row encoding and ndjson
// streaming. It runs single-threaded against the idle server.
func probeServer(m *metricSet, e *env) error {
	ctx := context.Background()
	native := fusedscan.NativeConfig()
	post := func(w http.ResponseWriter, path string, body any) {
		buf, _ := json.Marshal(body)
		req := httptest.NewRequest("POST", path, bytes.NewReader(buf))
		e.srv.ServeHTTP(w, req)
	}
	var points, streams []*stmt
	for _, s := range e.ds.stmts {
		switch s.class {
		case "point":
			if len(points) < 16 {
				points = append(points, s)
			}
		case "stream":
			streams = append(streams, s)
		}
	}
	preps := map[int]*fusedscan.Prepared{}
	for _, s := range points {
		if preps[s.shape] == nil {
			p, err := e.eng.Prepare(e.ds.shapes[s.shape])
			if err != nil {
				return err
			}
			preps[s.shape] = p
		}
	}
	// Three ways to the same prepared statement, taken in turn so drift in
	// the process (heap size, GC phase) falls on all three alike.
	routes := []func(s *stmt) error{
		func(s *stmt) error {
			_, err := preps[s.shape].ExecuteWith(ctx, fusedscan.QueryOptions{Config: &native, Args: s.args})
			return err
		},
		func(s *stmt) error {
			post(httptest.NewRecorder(), "/execute", server.ExecuteRequest{Session: e.sessions[0], Stmt: e.stmtIDs[0][s.shape], Args: s.args})
			return nil
		},
		func(s *stmt) error {
			_, err := e.clients[0].Execute(ctx, server.ExecuteRequest{Session: e.sessions[0], Stmt: e.stmtIDs[0][s.shape], Args: s.args})
			return err
		},
	}
	lat := make([][]int64, len(routes))
	for rep := 0; rep < 8; rep++ {
		for _, s := range points {
			for r, route := range routes {
				start := time.Now()
				if err := route(s); err != nil {
					return err
				}
				lat[r] = append(lat[r], time.Since(start).Nanoseconds())
			}
		}
	}
	for r := range lat {
		sort.Slice(lat[r], func(i, j int) bool { return lat[r][i] < lat[r][j] })
	}
	inproc, handler, tcp := float64(quantile(lat[0], 0.5)), float64(quantile(lat[1], 0.5)), float64(quantile(lat[2], 0.5))
	m.set("server.overhead_ns", handler-inproc)
	m.set("server.loopback_ns", tcp-handler)

	// Row encoding: the same projection as a buffered JSON response and
	// in-process, per row; then as an ndjson stream, in body bytes per second.
	s := streams[0]
	var rows int
	var engineS, bufferedS []float64
	for rep := 0; rep < 5; rep++ {
		engineS = append(engineS, medianSeconds(1, func() {
			if res, err := e.eng.QueryWith(ctx, s.sql, fusedscan.QueryOptions{Config: &native}); err == nil {
				rows = len(res.Rows)
			}
		}))
		bufferedS = append(bufferedS, medianSeconds(1, func() {
			post(httptest.NewRecorder(), "/query", server.QueryRequest{SQL: s.sql, Session: e.sessions[0]})
		}))
	}
	engine, buffered := medianFloat(engineS), medianFloat(bufferedS)
	if rows > 0 {
		m.set("server.encode_ns_per_row", (buffered-engine)*1e9/float64(rows))
	}
	var body int64
	streamed := medianSeconds(3, func() {
		w := &countingWriter{header: http.Header{}}
		post(w, "/query", server.QueryRequest{SQL: s.sql, Session: e.sessions[0], Stream: true})
		body = w.n
	})
	m.set("server.stream_mb_per_s", float64(body)/1e6/streamed)
	return nil
}

// probeStorage times loading a saved table file back into a scratch engine.
func probeStorage(m *metricSet, e *env) error {
	path := filepath.Clean(e.dir) + ".probe.fscn" // beside the data directory, not in it
	if err := e.eng.SaveTable("side", path); err != nil {
		return err
	}
	defer os.Remove(path)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	var lerr error
	s := medianSeconds(3, func() {
		if _, err := fusedscan.NewEngine().LoadTable(path); err != nil {
			lerr = err
		}
	})
	m.set("storage.load_mb_per_s", float64(info.Size())/1e6/s)
	return lerr
}
