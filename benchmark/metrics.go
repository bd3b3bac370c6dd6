package main

// The metric catalogue. Names are final: later issues and BENCHMARK.json
// refer to metrics and workloads by them. bench_test.go checks that
// BENCHMARK.json lists exactly these, and that every run emits each of them
// exactly once.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the engine pays, measured with tracing off.
// The issue's seventh metric, failed_frac, is 0 on every correct run; the
// driver's contract forbids a bounded metric that is ever 0, so the failure
// count travels in the result line's "failed"/"attempted" and failed_frac
// sits in the per-layer list.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_after_setup_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer comes from the traced run only. A layer a workload does not
// exercise reports 0 for its metrics on that workload.
var perLayer = []metricDef{
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},

	{Name: "sqlparse.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlparse.normalize_ns", Unit: "ns", Better: "lower"},

	{Name: "lqp.build_ns", Unit: "ns", Better: "lower"},
	{Name: "lqp.optimize_ns", Unit: "ns", Better: "lower"},
	{Name: "lqp.optimize_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "lqp.clone_bind_ns", Unit: "ns", Better: "lower"},
	{Name: "lqp.access_path_ns", Unit: "ns", Better: "lower"},
	{Name: "lqp.index_chosen_frac", Unit: "ratio", Better: "higher"},

	{Name: "plancache.hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "plancache.evictions", Unit: "count", Better: "lower"},
	{Name: "plancache.invalidations", Unit: "count", Better: "lower"},
	{Name: "plancache.prepared_saved_ns", Unit: "ns", Better: "higher"},

	{Name: "pqp.translate_ns", Unit: "ns", Better: "lower"},
	{Name: "pqp.run_ns", Unit: "ns", Better: "lower"},
	{Name: "pqp.open_close_ns", Unit: "ns", Better: "lower"},
	{Name: "pqp.op.scan_frac", Unit: "ratio", Better: "lower"},
	{Name: "pqp.op.join_frac", Unit: "ratio", Better: "lower"},
	{Name: "pqp.op.groupby_frac", Unit: "ratio", Better: "lower"},
	{Name: "pqp.op.sort_frac", Unit: "ratio", Better: "lower"},
	{Name: "pqp.op.project_frac", Unit: "ratio", Better: "lower"},
	{Name: "pqp.join.ns_per_probe_row", Unit: "ns/row", Better: "lower"},
	{Name: "pqp.join.bloom_pass_frac", Unit: "ratio", Better: "lower"},
	{Name: "pqp.groupby.ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "pqp.batches_per_query", Unit: "count", Better: "lower"},

	{Name: "scan.native.plain.gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "scan.native.plain.positions.gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "scan.native.packed.gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "scan.native.packed.stored_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "scan.native.sel0001.ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "scan.native.sel1.ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "scan.native.sel50.ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "scan.native.preds2.ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "scan.native.preds5.ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "scan.roofline_frac", Unit: "ratio", Better: "higher"},
	{Name: "scan.time_frac_of_query", Unit: "ratio", Better: "lower"},
	{Name: "scan.chunks_pruned_frac", Unit: "ratio", Better: "higher"},
	{Name: "scan.bytes_scanned_per_query", Unit: "B", Better: "lower"},
	{Name: "scan.rows_examined_per_result", Unit: "count", Better: "lower"},
	{Name: "scan.intersect.merge_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "scan.intersect.gallop_ns_per_elem", Unit: "ns", Better: "lower"},

	{Name: "parallel.scan_2c_speedup", Unit: "ratio", Better: "higher"},
	{Name: "parallel.cpu_ratio_2c", Unit: "ratio", Better: "lower"},

	{Name: "index.probe_point_ns", Unit: "ns", Better: "lower"},
	{Name: "index.probe_range_ns_per_pos", Unit: "ns", Better: "lower"},
	{Name: "index.build_ms_per_mrow", Unit: "ms", Better: "lower"},
	{Name: "index.bytes_per_row", Unit: "B", Better: "lower"},

	{Name: "column.pack_ms_per_mrow", Unit: "ms", Better: "lower"},
	{Name: "column.packed_bytes_per_plain_byte", Unit: "ratio", Better: "lower"},
	{Name: "column.stats_ms_per_mrow", Unit: "ms", Better: "lower"},

	{Name: "govern.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "govern.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "govern.queue_age_sheds", Unit: "count", Better: "lower"},
	{Name: "govern.cheap_admitted", Unit: "count", Better: "higher"},

	{Name: "engine.unattributed_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.cpu_model_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.render_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "engine.first_query_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.alloc_kb_per_query", Unit: "KB", Better: "lower"},

	{Name: "server.overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "server.loopback_ns", Unit: "ns", Better: "lower"},
	{Name: "server.encode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "server.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "serve.point_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.scan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ddl_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "storage.snapshot_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.recover_s", Unit: "s", Better: "lower"},
	{Name: "storage.load_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.wal_fsyncs_per_ddl", Unit: "count", Better: "lower"},
	{Name: "storage.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "sim.fused512.wall_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "sim.sisd.wall_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "sim.jit_compile_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.fused512.sim_runtime_ms", Unit: "ms", Better: "lower"},

	{Name: "roofline.read_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "roofline.popcnt_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "driver.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "driver.oracle_s", Unit: "s", Better: "lower"},
	{Name: "driver.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.query_p99_ms", Unit: "ms", Better: "lower"},
}

// workloadWhy is the one-line reason each workload exists (BENCHMARK.json's
// "why"; the long form is in README.md).
var workloadWhy = map[string]string{
	"scan_heavy":    "multi-predicate COUNT/SUM over 4 Mi rows: the native scan kernel does >90 % of the work, parse/plan <0.1 %",
	"short_queries": "point, pruned, contradictory and LIMIT queries touching <=1 chunk: parse/plan/cache/translate/admission are the cost, the kernel <20 %; one slice fits the plan cache, one overflows it",
	"join_agg":      "hash join, GROUP BY, sort, projection and forced index range over 256 Ki rows at four input sizes: pqp operators and rendering dominate, the scan only feeds positions",
	"serve_mixed":   "2 closed-loop HTTP clients on a durable engine: prepared lookups, ad hoc scans, ndjson streams, joins and CREATE/DROP INDEX pairs with WAL fsync, then a restart that must keep them",
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics against a catalogue; set panics on a
// name the catalogue does not have, so a typo cannot invent a metric.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

// export renders every catalogue metric; one the workload never set is 0.
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}
