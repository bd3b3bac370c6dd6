package main

// One run of one workload: set-up, oracle, warm-up, passes, metrics. The
// untraced run reports every end-to-end metric; the traced run repeats the
// same op cycles with spans recorded around each layer call, runs the layer
// probes, and reports every per-layer metric.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"fusedscan"
	"fusedscan/internal/server"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed pass
	scale    float64 // 1 is the benchmark; tests shrink the tables
	trace    bool
	setups   int    // set-up repetitions behind setup_s's median
	outDir   string // trace files and durable data directories
	verbose  bool   // log each phase's duration to standard error
}

// phase logs how long a phase of the run took, when asked to.
func (c config) phase(name string, start time.Time) {
	if c.verbose {
		fmt.Fprintf(os.Stderr, "%s: %-12s %7.2f s\n", c.workload, name, since(start))
	}
}

// record is one run's result: the contract's result line plus what
// produced it, as kept in result files for -compare.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Scale     float64                `json:"scale"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Note      string                 `json:"note,omitempty"`
}

// gcHeadroomMB is the garbage the process may pile up on top of the loaded
// data before the collector runs, the same for every workload. Under the
// default (headroom proportional to the data) the small-table workloads
// collect every dozen queries, and the runtime's scavenger then flips, from
// one minute to the next, between handing each query's 5 MB machine model a
// recycled span that must be zeroed and a released one that need not be:
// short_queries' median latency read anywhere from 0.36 to 0.78 ms. With
// the period set by the garbage rate alone every query pays the zeroing and
// runs agree. The warm-up cycle allocates more than this, so the timed pass
// starts at the steady heap size.
const gcHeadroomMB = 256

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload executes one run. A non-nil error means the benchmark itself
// could not run; wrong or failed ops are counted in the record instead.
func runWorkload(cfg config) (*record, error) {
	rec := &record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace}
	dataDir := filepath.Join(cfg.outDir, "data")

	begin := time.Now()
	// Set-up, several times over; the last one is kept.
	var e *env
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = setUp(cfg.workload, cfg.seed, cfg.scale, dataDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, since(start))
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	heap := heapMB()
	cfg.phase("set-up", begin)
	old := debug.SetGCPercent(int(100 * gcHeadroomMB / heap))
	defer debug.SetGCPercent(old)

	start := time.Now()
	newOracle(e.ds).evalAll(e.ds.stmts)
	oracleS := since(start)
	cfg.phase("oracle", start)

	tally := func(p *pass) {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		if p.firstErr != nil && rec.Note == "" {
			rec.Note = p.firstErr.Error()
		}
	}
	x := e.executor()
	first := time.Now()
	if o := e.ds.ops[0][0]; o.mode != modeDDL {
		x.do(0, o, e.ds.stmts[o.stmt]) // cold: first touch of statistics and caches
	}
	firstMs := since(first) * 1e3
	tally(runPass(x, e.ds, 0, 1)) // warm-up: one full cycle, checked like any other
	cfg.phase("warm-up", first)

	var m *metricSet
	if !cfg.trace {
		start := time.Now()
		p := runPass(x, e.ds, cfg.seconds, 0)
		tally(p)
		cfg.phase("timed pass", start)
		m = newMetricSet(endToEnd)
		lat := p.latencies(e.ds, nil)
		m.set("setup_s", medianFloat(setupS))
		m.set("queries_per_s", float64(len(lat))/p.wallS)
		m.set("query_p50_ms", float64(quantile(lat, 0.5))/1e6)
		m.set("query_p95_ms", float64(quantile(lat, 0.95))/1e6)
		m.set("cpu_ms_per_query", p.cpuS*1e3/float64(p.attempted))
		m.set("heap_after_setup_mb", heap)
	} else {
		m = newMetricSet(perLayer)
		m.set("driver.oracle_s", oracleS)
		m.set("engine.first_query_ms", firstMs)
		if err := tracedRun(cfg, e, x, m, tally); err != nil {
			return nil, err
		}
	}

	if e.srv != nil {
		start := time.Now()
		defer cfg.phase("restart", start)
		recoverS, err := e.restartAndVerify()
		rec.Attempted++
		if err != nil {
			rec.Failed++
			if rec.Note == "" {
				rec.Note = err.Error()
			}
		}
		if cfg.trace {
			m.set("storage.recover_s", recoverS)
		}
	}
	if cfg.trace {
		m.set("failed_frac", float64(rec.Failed)/float64(rec.Attempted))
	}
	rec.Metrics = m.export()
	rec.Correct = rec.Failed == 0
	err := e.close()
	e = nil
	return rec, err
}

// tracedRun is the traced half of runWorkload: an untraced pass for the
// reference timings and the engine's own counters, the traced pass, then
// the workload's layer probes.
func tracedRun(cfg config, e *env, x executor, m *metricSet, tally func(*pass)) error {
	ds := e.ds
	before := e.eng.Stats()
	start := time.Now()
	untraced := runPass(x, ds, cfg.seconds/2, 0)
	tally(untraced)
	cfg.phase("untraced", start)
	after := e.eng.Stats()
	cycles := float64(untraced.cycles)
	perQuery := func(v int64) float64 { return float64(v) / float64(untraced.attempted) }

	// The engine's counters over whole cycles of a fixed op list: per cycle
	// (or per query) they repeat exactly with one client.
	if lookups := (after.PlanCacheHits - before.PlanCacheHits) + (after.PlanCacheMisses - before.PlanCacheMisses); lookups > 0 {
		m.set("plancache.hit_frac", float64(after.PlanCacheHits-before.PlanCacheHits)/float64(lookups))
	}
	m.set("plancache.evictions", float64(after.PlanCacheEvictions-before.PlanCacheEvictions)/cycles)
	m.set("plancache.invalidations", float64(after.PlanCacheInvalidations-before.PlanCacheInvalidations)/cycles)
	m.set("scan.bytes_scanned_per_query", perQuery(after.BytesScanned-before.BytesScanned))
	admitted, rejected := after.Admitted-before.Admitted, after.Rejected-before.Rejected
	if admitted+rejected > 0 {
		m.set("govern.shed_frac", float64(rejected)/float64(admitted+rejected))
	}
	m.set("govern.queue_age_sheds", float64(after.QueueAgeSheds-before.QueueAgeSheds)/cycles)
	m.set("govern.cheap_admitted", float64(after.CheapAdmitted-before.CheapAdmitted)/cycles)
	m.set("engine.alloc_kb_per_query", float64(untraced.allocB)/1024/float64(untraced.attempted))
	m.set("driver.gc_pause_ms", float64(untraced.gcPauseNs)/1e6)
	lat := untraced.latencies(ds, nil)
	if len(lat) >= 1000 {
		m.set("driver.query_p99_ms", float64(quantile(lat, 0.99))/1e6)
	}
	adhoc := untraced.latencies(ds, func(o op, s *stmt) bool { return o.mode == modeAdhoc && s.class != "cache_thrash" })
	prepared := untraced.latencies(ds, func(o op, _ *stmt) bool { return o.mode == modePrepared })
	if e.srv == nil && len(adhoc) > 0 && len(prepared) > 0 {
		m.set("plancache.prepared_saved_ns", float64(quantile(adhoc, 0.5)-quantile(prepared, 0.5)))
	}

	// The traced pass. In process, the walker is the executor; over HTTP the
	// clients are spanned and one client's SELECTs are then walked in process
	// on the same engine.
	start = time.Now()
	tr := newTracer()
	w, err := newWalker(e, tr)
	if err != nil {
		return fmt.Errorf("walker: %w", err)
	}
	var traced *pass
	if e.srv == nil {
		traced = runPass(w, ds, cfg.seconds/2, 0)
	} else {
		traced = runPass(spanExec{inner: x, tr: tr}, ds, cfg.seconds/2, 0)
		selects := &dataset{stmts: ds.stmts, ops: [][]op{nil}}
		for _, o := range ds.ops[0] {
			if o.mode == modeStream {
				o.mode = modeAdhoc
			}
			if o.mode != modeDDL {
				selects.ops[0] = append(selects.ops[0], o)
			}
		}
		w.stageNs = nil
		tally(runPass(w, selects, 0, 1))
	}
	tally(traced)
	cfg.phase("traced", start)
	m.set("driver.trace_overhead_frac", (traced.wallS/float64(traced.attempted))/(untraced.wallS/float64(untraced.attempted))-1)

	self := tr.selfMedians()
	for _, stage := range []string{"sqlparse.parse", "sqlparse.normalize", "lqp.build", "lqp.optimize", "lqp.clone_bind", "lqp.access_path", "pqp.translate", "pqp.run", "engine.cpu_model"} {
		m.set(stage+"_ns", self[stage])
	}
	t := &w.totals
	m.set("lqp.optimize_cold_ms", medianFloat(t.coldMs))
	if t.ops > 0 {
		m.set("lqp.index_chosen_frac", float64(t.indexChosen)/float64(t.ops))
		m.set("pqp.batches_per_query", float64(t.batches)/float64(t.ops))
	}
	var opNs int64
	for _, ns := range t.selfNs {
		opNs += ns
	}
	if opNs > 0 {
		for _, f := range []string{"scan", "join", "groupby", "sort", "project"} {
			m.set("pqp.op."+f+"_frac", float64(t.selfNs[f])/float64(opNs))
		}
	}
	if t.opNs > 0 {
		m.set("scan.time_frac_of_query", float64(t.selfNs["scan"])/float64(t.opNs))
	}
	sort.Slice(t.openClose, func(i, j int) bool { return t.openClose[i] < t.openClose[j] })
	m.set("pqp.open_close_ns", float64(quantile(t.openClose, 0.5)))
	if t.probeRows > 0 {
		m.set("pqp.join.ns_per_probe_row", float64(t.joinSelfNs)/float64(t.probeRows))
	}
	if t.bloomChecks > 0 {
		m.set("pqp.join.bloom_pass_frac", float64(t.bloomPass)/float64(t.bloomChecks))
	}
	if t.groupRows > 0 {
		m.set("pqp.groupby.ns_per_row", float64(t.groupSelfNs)/float64(t.groupRows))
	}
	if t.pruned+t.examined > 0 {
		m.set("scan.chunks_pruned_frac", float64(t.pruned)/float64(t.pruned+t.examined))
	}
	m.set("scan.rows_examined_per_result", float64(t.scanRowsIn)/float64(t.resultRows))
	if t.renderRows > 0 {
		m.set("engine.render_ns_per_row", float64(t.renderNs)/float64(t.renderRows))
	}
	if w.stageNs != nil {
		// What Engine.Query costs beyond the stages the walk can see
		// (admission, accounting, result assembly), op by op.
		var diff []float64
		for i, engineNs := range untraced.perOpMedian(ds) {
			if engineNs >= 0 && w.stageNs[i] > 0 {
				diff = append(diff, engineNs-w.stageNs[i])
			}
		}
		m.set("engine.unattributed_ns", medianFloat(diff))
	}

	start = time.Now()
	if err := probeWorkload(m, e, untraced, ds); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	cfg.phase("probes", start)
	return tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"))
}

// probeWorkload runs the layer probes that belong to the workload and
// derives the metrics that come from set-up's own timings.
func probeWorkload(m *metricSet, e *env, untraced *pass, ds *dataset) error {
	ts := e.times
	if ts.indexRows > 0 {
		m.set("index.build_ms_per_mrow", ts.index*1e3/(float64(ts.indexRows)/1e6))
	}
	switch e.workload {
	case "scan_heavy":
		m.set("column.pack_ms_per_mrow", ts.pack*1e3/(float64(ts.packCells)/1e6))
		probeRoofline(m, ds.table("wide").rows()*len(ds.table("wide").cols)*4)
		if err := probeScan(m, e); err != nil {
			return err
		}
		m.set("scan.roofline_frac", m.values["scan.native.plain.gb_per_s"]/m.values["roofline.read_gb_per_s"])
		if err := probeParallel(m, e); err != nil {
			return err
		}
		return probeSim(m, e)
	case "short_queries":
		probeIndexPoint(m, e, "events", "id")
		probeGovern(m)
	case "join_agg":
		probeIndexPoint(m, e, "fact", "k")
		probeIndexRange(m, e)
	case "serve_mixed":
		for _, class := range []string{"point", "scan", "stream", "join", "ddl"} {
			lat := untraced.latencies(ds, func(_ op, s *stmt) bool { return s.class == class })
			m.set("serve."+class+"_p50_ms", float64(quantile(lat, 0.5))/1e6)
		}
		var retries int64
		for _, cl := range e.clients {
			retries += cl.Stats().Retries
		}
		m.set("client.retries", float64(retries))
		st := e.eng.Stats()
		m.set("storage.snapshot_mb_per_s", float64(ts.userBytes)/1e6/ts.finish)
		if disk, err := dirBytes(e.dir); err == nil {
			m.set("storage.disk_bytes_per_user_byte", float64(disk)/float64(ts.userBytes))
		}
		// Every WAL append after set-up is one of the pass's DDL statements.
		if appends := st.WALAppends - e.walAppends0; appends > 0 {
			m.set("storage.wal_fsyncs_per_ddl", float64(st.WALFsyncs-e.walFsyncs0)/float64(appends))
		}
		probeIndexPoint(m, e, "orders", "id")
		probeGovern(m)
		if err := probeServer(m, e); err != nil {
			return err
		}
		return probeStorage(m, e)
	}
	return nil
}

// restartAndVerify is serve_mixed's durability check: each client creates
// one last index and has it acknowledged, the engine is closed and reopened
// from its directory alone, every acknowledged index must be live again,
// and a sample of statements must still answer as the oracle says. It
// returns the time the re-Open took.
func (e *env) restartAndVerify() (float64, error) {
	want := map[string]bool{}
	for _, t := range e.ds.tables {
		for _, col := range t.index {
			want[t.name+"."+col] = true
		}
	}
	ddl := 0
	for _, s := range e.ds.stmts {
		if s.class != "ddl" {
			continue
		}
		create := fmt.Sprintf("CREATE INDEX ON %s (%s)", s.table, s.cols[0])
		if _, err := e.clients[ddl%len(e.clients)].Query(context.Background(), server.QueryRequest{SQL: create}); err != nil {
			return 0, fmt.Errorf("%s: %w", create, err)
		}
		want[s.table+"."+s.cols[0]] = true
		ddl++
	}
	if err := e.stopServer(); err != nil {
		return 0, err
	}
	if err := e.eng.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	start := time.Now()
	eng, err := fusedscan.Open(e.dir)
	if err != nil {
		return 0, fmt.Errorf("re-open: %w", err)
	}
	recoverS := since(start)
	e.eng = eng
	for _, t := range e.ds.tables {
		for _, meta := range eng.Indexes(t.name) {
			delete(want, meta.Table+"."+meta.Column)
		}
	}
	if len(want) > 0 {
		var lost []string
		for k := range want {
			lost = append(lost, k)
		}
		sort.Strings(lost)
		return recoverS, errors.New("acknowledged indexes lost across restart: " + strings.Join(lost, ", "))
	}
	native := fusedscan.NativeConfig()
	for i, s := range e.ds.stmts {
		if s.class == "ddl" || i%8 != 0 {
			continue
		}
		res, err := eng.QueryWith(context.Background(), s.sql, fusedscan.QueryOptions{Config: &native})
		if err != nil {
			return recoverS, fmt.Errorf("after restart: %w", err)
		}
		if !s.want.matches(&reply{count: res.Count, rows: res.Rows}) {
			return recoverS, fmt.Errorf("after restart: wrong result for %q", s.sql)
		}
	}
	return recoverS, nil
}
