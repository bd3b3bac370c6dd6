// Package fusedscan is a full-system reproduction of "Fused Table Scans:
// Combining AVX-512 and JIT to Double the Performance of Multi-Predicate
// Scans" (Dreseler et al., HardBD/Active @ ICDE 2018).
//
// The engine stores tables column-major, parses a scan-oriented SQL
// subset, optimizes logical plans (selectivity-based predicate reordering
// and fused-chain tagging), JIT-generates specialized fused-scan operators
// over an emulated AVX-512/AVX2 instruction set, and executes them against
// a calibrated model of the paper's Xeon Platinum 8180 — reporting both
// exact query results and the simulated hardware counters (runtime, branch
// mispredictions, useless hardware prefetches, DRAM traffic) the paper's
// figures are built from.
//
// Quick start:
//
//	eng := fusedscan.NewEngine()
//	tb := eng.CreateTable("tbl")
//	tb.Int32("a", aVals)
//	tb.Int32("b", bVals)
//	if err := tb.Finish(); err != nil { ... }
//	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
//	fmt.Println(res.Count, res.Report.RuntimeMs)
package fusedscan

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/govern"
	"fusedscan/internal/index"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/pqp"
	"fusedscan/internal/sqlparse"
	"fusedscan/internal/storage"
	"fusedscan/internal/vec"
)

// Config selects the execution strategy for predicate chains.
type Config struct {
	// Simulate selects the emulated AVX-512/AVX2 execution path and the
	// machine model: queries run the paper's instruction-level emulation
	// and Result.Report carries the simulated hardware counters. When
	// false, predicate chains execute on the native turbo path — generated
	// SWAR kernels over the raw column bytes, an order of magnitude faster
	// in wall-clock terms — and Result.Report is nil (there is nothing to
	// simulate). Results are bit-identical either way.
	Simulate bool
	// UseFused enables the JIT-compiled Fused Table Scan (default). When
	// false, chains execute as scalar short-circuit scans. Ignored on the
	// native path (Simulate false).
	UseFused bool
	// RegisterWidth is the vector width in bits: 128, 256 or 512.
	RegisterWidth int
	// AVX2 selects the paper's AVX2 backport dialect (requires
	// RegisterWidth 128).
	AVX2 bool
	// Cores > 1 lets a table scan run on up to that many cores
	// — simulated ones under Simulate (see internal/parallel) — feeding one
	// ordered batch stream into the rest of the plan. Its morsels are the
	// 64 Ki-row chunks that zone-map pruning keeps (on the index access
	// path, those holding a candidate row); the querying goroutine runs
	// its share and at most Cores-1 helpers run the rest. A scan stays on
	// one core when fewer than two chunks survive pruning, a LIMIT bounds
	// it or it only counts rows with no predicate to run per chunk (every
	// row, or an index's candidates with no residual), and natively the
	// engine lowers the count while other queries execute (GOMAXPROCS
	// less the others). 0 or 1 means single-core, the paper's evaluation
	// setting; NativeConfig sets GOMAXPROCS.
	Cores int
}

// DefaultConfig is the paper's best configuration: fused, AVX-512, 512-bit,
// with the machine model on (Result.Report populated). Callers that want
// raw wall-clock speed instead of simulated counters set Simulate to false
// (or use NativeConfig).
func DefaultConfig() Config {
	return Config{Simulate: true, UseFused: true, RegisterWidth: 512}
}

// NativeConfig is the turbo configuration: predicate chains run on the
// generated SWAR kernels with zone-map chunk pruning, on every core the Go
// runtime schedules on, and no query builds or charges a machine model.
// Result.Report is nil; results are bit-identical to DefaultConfig.
func NativeConfig() Config {
	return Config{Simulate: false, UseFused: true, RegisterWidth: 512, Cores: runtime.GOMAXPROCS(0)}
}

func (c Config) options() (pqp.Options, error) {
	w := vec.Width(c.RegisterWidth)
	if !w.Valid() {
		return pqp.Options{}, fmt.Errorf("fusedscan: register width must be 128, 256 or 512, got %d", c.RegisterWidth)
	}
	isa := vec.IsaAVX512
	if c.AVX2 {
		isa = vec.IsaAVX2
		if w != vec.W128 {
			return pqp.Options{}, fmt.Errorf("fusedscan: the AVX2 dialect supports only 128-bit registers")
		}
	}
	if c.Cores < 0 {
		return pqp.Options{}, fmt.Errorf("fusedscan: cores must be >= 0, got %d", c.Cores)
	}
	return pqp.Options{
		Native: !c.Simulate, UseFused: c.UseFused, Width: w, ISA: isa,
		Cores: c.Cores,
	}, nil
}

// PerfReport summarizes the simulated hardware behaviour of one execution
// on the modelled Xeon Platinum 8180.
type PerfReport struct {
	RuntimeMs         float64 // simulated wall time
	RuntimeCycles     float64
	ComputeCycles     float64 // incl. misprediction penalties and exposed latency
	MemCycles         float64 // DRAM traffic at stream bandwidth
	AchievedGBs       float64
	Instructions      uint64
	Branches          uint64
	BranchMispredicts uint64 // PAPI_BR_MSP
	UselessPrefetches uint64 // l2_lines_out.useless_hwpf
	DRAMBytes         uint64
	CompiledOperators int
	CompileTimeMicros int
	OperatorCacheHits int
	OperatorCacheSize int
}

func perfReport(r mach.Report, progs []*jit.Program, hits, cached int) PerfReport {
	pr := PerfReport{
		RuntimeMs:         r.RuntimeMs,
		RuntimeCycles:     r.RuntimeCycles,
		ComputeCycles:     r.ComputeCyclesTotal,
		MemCycles:         r.MemCycles,
		AchievedGBs:       r.AchievedGBs,
		Instructions:      r.ScalarInstrs + r.VecInstrs,
		Branches:          r.Branches,
		BranchMispredicts: r.Mispredicts,
		UselessPrefetches: r.UselessPrefetch,
		DRAMBytes:         r.DRAMLines() * 64,
		CompiledOperators: len(progs),
		OperatorCacheHits: hits,
		OperatorCacheSize: cached,
	}
	for _, p := range progs {
		pr.CompileTimeMicros += p.CompileMicros
	}
	return pr
}

// OperatorStats is one physical operator's runtime counters from the
// batch pipeline: how many qualifying rows it pulled from its child, how
// many it handed to its parent, how many batches it emitted, and the
// wall-clock time spent in it (inclusive of children; for the scan and
// join of an aggregation's window fragments, summed over the cores that
// ran them — DESIGN §9). Entries are ordered root first, matching the
// physical plan tree.
type OperatorStats struct {
	Name    string
	RowsIn  int64
	RowsOut int64
	Batches int64
	WallNs  int64
	// ChunksPruned counts scan chunks skipped by zone-map pruning (scan
	// leaves only).
	ChunksPruned int64
	// Path names the execution path a scan leaf used: "native", "emulated",
	// "scalar" or "scalar-fallback". Empty for non-scan operators.
	Path string
	// Depth is the operator's depth in the plan tree (root 0); a hash
	// join's build subtree is indented below the join.
	Depth int
	// BuildRows / ProbeRows are hash-join counters: rows folded into the
	// build-side hash table and probe-side rows that reached the join.
	BuildRows int64
	ProbeRows int64
	// BloomChecks / BloomPass count predicate-transfer prefilter
	// evaluations on the probe side: rows checked and rows let through.
	BloomChecks int64
	BloomPass   int64
	// BloomSkipped marks a join whose Bloom filter passed nearly every
	// sampled probe key and so was not injected into the probe scan.
	BloomSkipped bool
	// Groups counts distinct groups a grouped-aggregation sink produced.
	Groups int64
	// Encoding names the storage encoding of a scan leaf's predicate
	// columns: "plain", "packed", or "mixed". Empty for non-scan
	// operators.
	Encoding string
	// BytesScanned totals the stored value bytes the scan leaf's
	// predicate columns covered across non-pruned windows — packed
	// columns count their 64-bit word spans, so the compression win is
	// directly visible next to RowsIn.
	BytesScanned int64
	// IndexProbes / IndexRows are index-scan counters: secondary-index
	// probes executed and positions they materialized before the sorted
	// intersection narrowed them.
	IndexProbes int64
	IndexRows   int64
	// Cores is how many cores produced a scan leaf's windows: 1, or 1
	// plus the helpers a parallel scan started. 0 for other operators.
	Cores int
}

// Result is the outcome of Engine.Query.
type Result struct {
	Count int64 // COUNT(*) value, or number of qualifying rows (capped at LIMIT n)
	// Sum is the rendered value of the first SUM(col) item; empty unless
	// the query aggregates with SUM without GROUP BY. It is "NULL" when no
	// qualifying row has a non-NULL col (including no qualifying row at
	// all), as SQL defines SUM over an empty input.
	Sum     string
	Columns []string   // projected column names (nil for aggregates)
	Rows    [][]string // rendered output rows (nil for aggregates)
	// Report carries the simulated hardware counters when the query ran
	// with Config.Simulate; nil on the native path (nothing is simulated).
	Report *PerfReport
	// Operators holds per-operator pipeline counters, root first — the
	// data behind EXPLAIN ANALYZE and the LIMIT short-circuit tests.
	Operators []OperatorStats
	Fused     bool // whether a Fused Table Scan operator executed
	// Aggregate is set when the query computed aggregates; Rows then holds
	// exactly one row of rendered aggregate values under Columns labels.
	Aggregate bool
	// Degraded is set when JIT compilation failed and the query fell back
	// to the scalar scan path: results are still exact, only slower.
	// DegradedReason records why the fallback happened.
	Degraded       bool
	DegradedReason string
}

// QueryError is the structured failure Engine.QueryContext returns when a
// stage of query processing panics (and, for fault-injection tests, when a
// stage is made to fail). The panic-recovery boundary converts internal
// panics — a malformed plan, a kernel bug, an injected fault — into this
// error so one bad query cannot take down a process serving many.
type QueryError struct {
	// Stage is where processing failed: "parse", "plan", "translate" or
	// "execute".
	Stage string
	// Query is the SQL text that triggered the failure.
	Query string
	// Err is the underlying cause (for a recovered panic, an error
	// wrapping the panic value).
	Err error
	// Panicked reports whether Err was recovered from a panic.
	Panicked bool
	// Stack holds the goroutine stack captured at recovery time (empty for
	// non-panic failures).
	Stack string
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("fusedscan: %s stage failed for %q: %v", e.Stage, e.Query, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *QueryError) Unwrap() error { return e.Err }

// Resource-governance surface (see internal/govern and DESIGN.md §8). The
// governance layer is fully permissive by default — no concurrency limit,
// no memory budget, no default deadline — so it costs nothing until limits
// are opted into with SetGovernance.
var (
	// ErrOverloaded is returned by QueryContext when admission control
	// sheds the query: the concurrency limit and wait queue are both full.
	// The concrete type is *OverloadedError, which carries a retry-after
	// hint. Test with errors.Is(err, fusedscan.ErrOverloaded).
	ErrOverloaded = govern.ErrOverloaded
	// ErrMemoryBudget is returned when a query exceeds its per-query memory
	// budget at a materialization point. The concrete type is
	// *MemoryBudgetError. Test with errors.Is(err, fusedscan.ErrMemoryBudget).
	ErrMemoryBudget = govern.ErrMemoryBudget
	// ErrDeadlineExhausted is returned when a query's deadline budget cannot
	// cover execution: admission control either rejected it early (remaining
	// budget below the predicted queue wait plus observed service time) or
	// the budget expired while the query waited in the admission queue. The
	// concrete type is *DeadlineExhaustedError, which also satisfies
	// errors.Is(err, context.DeadlineExceeded) so existing deadline handling
	// keeps working. Test with errors.Is(err, fusedscan.ErrDeadlineExhausted).
	ErrDeadlineExhausted = govern.ErrDeadlineExhausted
)

// Governance holds the engine's resource-governance knobs: admission
// control (MaxConcurrent, MaxQueue, QueueWait), per-query limits
// (DefaultQueryTimeout, MemBudgetBytes), the JIT circuit breaker, and
// transient-load retry. See DefaultGovernance for the permissive defaults.
type Governance = govern.Config

// BreakerSettings configures the JIT circuit breaker inside Governance.
type BreakerSettings = govern.BreakerConfig

// OverloadedError is the typed rejection admission control returns.
type OverloadedError = govern.OverloadedError

// MemoryBudgetError is the typed failure for a blown memory budget.
type MemoryBudgetError = govern.MemoryBudgetError

// DeadlineExhaustedError is the typed rejection for a deadline budget that
// cannot cover the predicted queue wait plus service time (or that expired
// while the query was queued).
type DeadlineExhaustedError = govern.DeadlineExhaustedError

// ChecksumError reports a corrupt column block detected while loading a
// table file (see internal/storage).
type ChecksumError = storage.ChecksumError

// DefaultGovernance returns the out-of-the-box governance configuration:
// fully permissive admission, no default deadline, no memory budget, JIT
// breaker enabled, two retries for transient load faults.
func DefaultGovernance() Governance { return govern.Defaults() }

// EngineStats is a point-in-time snapshot of the engine's governance and
// JIT counters, for operators and load tests.
type EngineStats struct {
	// Admission control.
	Admitted      int64 // queries that passed admission
	Rejected      int64 // queries shed with ErrOverloaded
	QueueTimeouts int64 // rejections after waiting the full QueueWait
	Running       int64 // admitted queries currently executing
	Queued        int64 // queries currently waiting for admission
	// Adaptive admission (see DESIGN.md §13).
	QueueAgeSheds    int64   // waiters shed CoDel-style for over-target sojourn
	FairnessSheds    int64   // waiters displaced for per-session fairness
	DeadlineRejects  int64   // queries rejected with ErrDeadlineExhausted
	CheapAdmitted    int64   // admissions through the cheap lane
	QueueDrainPerSec float64 // observed admission throughput (basis for Retry-After)
	EstServiceMs     float64 // observed per-query service time EWMA (deadline budgets)
	// Memory budgets and storage.
	MemBudgetDenials int64 // queries failed with ErrMemoryBudget
	LoadRetries      int64 // transient table-load faults that were retried
	// JIT circuit breaker.
	BreakerState               string // "closed", "open" or "half-open"
	BreakerTrips               int64  // closed->open transitions
	BreakerRejections          int64  // compile requests rejected while open
	JITBreakerRejects          int64  // compiler-side rejection count (incl. injected)
	ConsecutiveCompileFailures int
	// JIT operator cache.
	JITCacheHits   int
	JITCacheMisses int
	JITCacheSize   int
	// Batch pipeline (cumulative across queries).
	PipelineBatches int64 // batches that flowed between pipeline operators
	PipelineRows    int64 // qualifying rows delivered by plan roots
	// Multi-table pipeline (cumulative across queries).
	JoinBuildRows   int64 // rows folded into hash-join build tables
	JoinProbeRows   int64 // probe-side rows that reached a hash join
	JoinBloomChecks int64 // predicate-transfer Bloom prefilter evaluations
	JoinBloomPass   int64 // probe rows the transferred filter let through
	GroupsProduced  int64 // distinct groups emitted by grouped aggregation
	// Scan storage (cumulative across queries).
	BytesScanned int64 // stored value bytes addressed by scan leaves (post-pruning)
	PackedScans  int64 // scan leaves that read bit-packed (or mixed) columns
	// Secondary indexes (see index.go and DESIGN.md §16).
	Indexes            int64 // live secondary indexes
	IndexesQuarantined int64 // indexes currently out of service
	IndexScans         int64 // queries answered on the index access path
	IndexProbes        int64 // index probes executed (cumulative)
	IndexRows          int64 // positions probes materialized pre-intersection
	// Prepared-statement plan cache (see Engine.Prepare). A hit means parse
	// and optimize were skipped for that execution; invalidations count
	// entries dropped because Register/DropTable/SetConfig bumped the
	// catalog/config epoch.
	PlanCacheHits          int64
	PlanCacheMisses        int64
	PlanCacheSize          int
	PlanCacheEvictions     int64
	PlanCacheInvalidations int64
	// CatalogEpoch is the current catalog/config epoch; it increases on
	// every Register, DropTable and SetConfig.
	CatalogEpoch uint64
	// Durability (all zero unless the engine was opened on a data
	// directory with Open; see durable.go).
	Durable             bool
	WALAppends          int64 // DDL records committed (written + fsynced)
	WALFsyncs           int64 // fsync calls issued by the WAL
	WALSizeBytes        int64 // current WAL size
	WALRecordsReplayed  int64 // records replayed by the last Open
	WALCompactions      int64 // manifest compactions (WAL resets)
	SnapshotsWritten    int64 // table snapshots atomically published
	ScrubPasses         int64 // completed background/manual scrub passes
	ScrubBlocksVerified int64 // column blocks whose checksums re-verified
	BlocksQuarantined   int64 // checksum-mismatched blocks found (ever)
	TablesQuarantined   int64 // tables currently out of service
}

// Engine owns a catalog of tables, the JIT operator cache, the optimizer
// statistics cache, and the machine model configuration.
//
// Concurrency contract: an Engine is safe for concurrent use by multiple
// goroutines. Queries (Query, QueryContext, ExplainQuery, Scan.Run*) may
// run concurrently with each other and with catalog changes (Register,
// CreateTable/Finish, LoadTable, LoadCSV) and SetConfig; each query reads
// a consistent snapshot of the configuration at its start, and registered
// tables are immutable. The one exception is mutating a *column.Table or
// TableBuilder after handing it to Register/Finish — tables must be fully
// built before they are registered.
type Engine struct {
	params    mach.Params
	space     *mach.AddrSpace
	compiler  *jit.Compiler
	optimizer *lqp.Optimizer
	gov       *govern.Governor
	breaker   *govern.Breaker

	mu     sync.RWMutex // guards tables, quarantined, the index catalog and config
	tables map[string]*column.Table
	// quarantined holds tables taken out of service because their durable
	// snapshot failed verification (see durable.go). Always empty on
	// ephemeral engines.
	quarantined map[string]*QuarantineError
	// indexes maps table → column → live secondary index (see index.go).
	// idxQuarantined holds indexes out of service after a corrupt
	// snapshot; indexDefs remembers index columns across drop/re-register
	// so a replaced table keeps its indexes.
	indexes        map[string]map[string]*index.Index
	idxQuarantined map[string]map[string]*IndexQuarantineError
	indexDefs      map[string]map[string]bool
	config         Config

	// dur is the durability sidecar: non-nil only for engines opened on a
	// data directory with Open/OpenWithOptions. Nil costs nothing — the
	// scan hot path never touches it.
	dur *durability

	// epoch is the catalog/config generation: bumped by Register, DropTable
	// and SetConfig so cached prepared plans keyed under an older epoch can
	// never be served against a changed catalog or configuration.
	epoch atomic.Uint64
	// plans is the shared prepared-statement plan cache (see Prepare).
	plans *planCache

	// Batch-pipeline counters (cumulative, for Stats).
	pipeBatches atomic.Int64
	pipeRows    atomic.Int64
	// Multi-table pipeline counters (cumulative, for Stats).
	joinBuildRows   atomic.Int64
	joinProbeRows   atomic.Int64
	joinBloomChecks atomic.Int64
	joinBloomPass   atomic.Int64
	groupsProduced  atomic.Int64
	// Scan storage counters (cumulative, for Stats).
	bytesScanned atomic.Int64
	packedScans  atomic.Int64
	// Index-subsystem counters (cumulative, for Stats).
	idxProbes atomic.Int64
	idxRows   atomic.Int64
	idxScans  atomic.Int64
}

// addCounters sums two counter sets field by field.
func addCounters(a, b mach.Counters) mach.Counters {
	a.ScalarInstrs += b.ScalarInstrs
	a.VecInstrs += b.VecInstrs
	a.GatherLanes += b.GatherLanes
	a.Branches += b.Branches
	a.Mispredicts += b.Mispredicts
	a.L1Hits += b.L1Hits
	a.L2Hits += b.L2Hits
	a.L3Hits += b.L3Hits
	a.DemandDRAMLines += b.DemandDRAMLines
	a.PrefetchedLines += b.PrefetchedLines
	a.UselessPrefetch += b.UselessPrefetch
	a.CoveredByPf += b.CoveredByPf
	a.ExposedLatencyCy += b.ExposedLatencyCy
	a.ComputeCycles += b.ComputeCycles
	return a
}

// NewEngine creates an engine with the paper's machine calibration and the
// default (fused, AVX-512/512) execution configuration.
func NewEngine() *Engine {
	gcfg := govern.Defaults()
	e := &Engine{
		params:         mach.Default(),
		space:          mach.NewAddrSpace(),
		tables:         make(map[string]*column.Table),
		quarantined:    make(map[string]*QuarantineError),
		indexes:        make(map[string]map[string]*index.Index),
		idxQuarantined: make(map[string]map[string]*IndexQuarantineError),
		indexDefs:      make(map[string]map[string]bool),
		compiler:       jit.NewCompiler(),
		optimizer:      lqp.NewOptimizer(),
		gov:            govern.New(gcfg),
		breaker:        govern.NewBreaker(gcfg.Breaker),
		config:         DefaultConfig(),
		plans:          newPlanCache(0),
	}
	e.compiler.SetBreaker(e.breaker)
	e.optimizer.SetIndexCatalog(e)
	return e
}

// SetGovernance changes the resource-governance configuration: admission
// limits, the default query deadline, the per-query memory budget, the JIT
// breaker thresholds and load-retry policy. Queries already admitted (or
// queued) finish under the limits they started with.
func (e *Engine) SetGovernance(g Governance) {
	e.gov.SetConfig(g)
	e.breaker.SetConfig(g.Breaker)
}

// Governance returns the current resource-governance configuration.
func (e *Engine) Governance() Governance { return e.gov.Config() }

// Stats snapshots the engine's governance and JIT counters.
func (e *Engine) Stats() EngineStats {
	gs := e.gov.Snapshot()
	bs := e.breaker.Stats()
	hits, misses, cached := e.compiler.Stats()
	ps := e.plans.stats()
	st := EngineStats{
		Admitted:                   gs.Admitted,
		Rejected:                   gs.Rejected,
		QueueTimeouts:              gs.QueueTimeouts,
		Running:                    gs.Running,
		Queued:                     gs.Queued,
		QueueAgeSheds:              gs.QueueAgeSheds,
		FairnessSheds:              gs.FairnessSheds,
		DeadlineRejects:            gs.DeadlineRejects,
		CheapAdmitted:              gs.CheapAdmitted,
		QueueDrainPerSec:           gs.QueueDrainPerSec,
		EstServiceMs:               gs.EstServiceMs,
		MemBudgetDenials:           gs.MemBudgetDenials,
		LoadRetries:                gs.LoadRetries,
		BreakerState:               bs.State,
		BreakerTrips:               bs.Trips,
		BreakerRejections:          bs.Rejections,
		JITBreakerRejects:          e.compiler.BreakerRejects(),
		ConsecutiveCompileFailures: bs.ConsecutiveFailures,
		JITCacheHits:               hits,
		JITCacheMisses:             misses,
		JITCacheSize:               cached,
		PipelineBatches:            e.pipeBatches.Load(),
		PipelineRows:               e.pipeRows.Load(),
		JoinBuildRows:              e.joinBuildRows.Load(),
		JoinProbeRows:              e.joinProbeRows.Load(),
		JoinBloomChecks:            e.joinBloomChecks.Load(),
		JoinBloomPass:              e.joinBloomPass.Load(),
		GroupsProduced:             e.groupsProduced.Load(),
		BytesScanned:               e.bytesScanned.Load(),
		PackedScans:                e.packedScans.Load(),
		PlanCacheHits:              ps.hits,
		PlanCacheMisses:            ps.misses,
		PlanCacheSize:              ps.size,
		PlanCacheEvictions:         ps.evictions,
		PlanCacheInvalidations:     ps.invalidations,
		CatalogEpoch:               e.epoch.Load(),
	}
	st.IndexScans = e.idxScans.Load()
	st.IndexProbes = e.idxProbes.Load()
	st.IndexRows = e.idxRows.Load()
	e.mu.RLock()
	st.TablesQuarantined = int64(len(e.quarantined))
	for _, cols := range e.indexes {
		st.Indexes += int64(len(cols))
	}
	for _, cols := range e.idxQuarantined {
		st.IndexesQuarantined += int64(len(cols))
	}
	e.mu.RUnlock()
	if d := e.dur; d != nil {
		ws := d.wal.Stats()
		st.Durable = true
		st.WALAppends = ws.Appends
		st.WALFsyncs = ws.Fsyncs
		st.WALSizeBytes = ws.Size
		st.WALRecordsReplayed = d.replayed
		st.WALCompactions = d.compactions.Load()
		st.SnapshotsWritten = d.snapshots.Load()
		st.ScrubPasses = d.scrubPasses.Load()
		st.ScrubBlocksVerified = d.scrubBlocks.Load()
		st.BlocksQuarantined = d.blocksQuarantined.Load()
	}
	return st
}

// bumpEpoch advances the catalog/config epoch and invalidates every cached
// prepared plan: subsequent lookups miss and replan against the current
// catalog and configuration.
func (e *Engine) bumpEpoch() {
	e.epoch.Add(1)
	e.plans.purge()
}

// SetConfig changes the execution strategy for subsequent queries. Queries
// already running keep the configuration they started with. Cached
// prepared plans are invalidated (the catalog/config epoch is bumped).
// On a durable engine the change is logged to the WAL and fsynced before
// it applies, so it survives a crash.
func (e *Engine) SetConfig(c Config) error {
	if _, err := c.options(); err != nil {
		return err
	}
	if e.dur != nil {
		return e.dur.setConfig(e, c)
	}
	e.mu.Lock()
	e.config = c
	e.mu.Unlock()
	e.bumpEpoch()
	return nil
}

// Config returns the current execution configuration.
func (e *Engine) Config() Config {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.config
}

// Table implements the planner catalog. A quarantined table — one whose
// durable snapshot failed verification — returns its *QuarantineError,
// distinguishing "out of service, data intact elsewhere" from "unknown".
func (e *Engine) Table(name string) (*column.Table, error) {
	e.mu.RLock()
	t, ok := e.tables[name]
	qe := e.quarantined[name]
	e.mu.RUnlock()
	if !ok {
		if qe != nil {
			return nil, qe
		}
		return nil, fmt.Errorf("fusedscan: unknown table %q", name)
	}
	return t, nil
}

// TableNames lists registered tables, sorted.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	e.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Register adds an existing table to the catalog. The table must not be
// mutated afterwards (see the Engine concurrency contract). A successful
// registration bumps the catalog epoch, invalidating cached prepared plans
// so a statement prepared against a dropped-and-re-registered table name
// can never execute a stale plan.
//
// On a durable engine, Register writes the table's snapshot and fsyncs a
// WAL record before it returns: a nil error means the table survives any
// crash. Registering over a quarantined name replaces the corrupt
// snapshot and lifts the quarantine.
func (e *Engine) Register(t *column.Table) error {
	return e.registerAs(t, storage.RecordRegister)
}

// registerAs routes a registration to the durable path (snapshot + WAL
// under the given record kind) or the plain in-memory path.
func (e *Engine) registerAs(t *column.Table, kind storage.RecordKind) error {
	if e.dur != nil {
		return e.dur.register(e, t, kind)
	}
	return e.registerMem(t)
}

// registerMem is the in-memory half of registration: catalog insert,
// quarantine lift, epoch bump. Durable registration calls it only after
// the snapshot and WAL record are on disk.
func (e *Engine) registerMem(t *column.Table) error {
	e.mu.Lock()
	if _, dup := e.tables[t.Name()]; dup {
		e.mu.Unlock()
		return fmt.Errorf("fusedscan: table %q already exists", t.Name())
	}
	e.tables[t.Name()] = t
	delete(e.quarantined, t.Name())
	e.mu.Unlock()
	e.bumpEpoch()
	// Re-registering a name that carried indexes rebuilds them against the
	// new table (the durable caller persists what this returns).
	e.rebuildIndexes(t)
	return nil
}

// DropTable removes a table from the catalog, reporting whether it was
// registered. Queries already running against the table finish normally
// (tables are immutable and the plan holds its own reference); new queries
// and cached prepared plans see the updated catalog — the drop bumps the
// catalog epoch. Dropping and re-registering under the same name is how a
// table is replaced.
//
// On a durable engine the drop is WAL-logged and fsynced before it
// applies; a persistence failure leaves the table registered and returns
// false. Use Drop to distinguish that failure from "not registered".
func (e *Engine) DropTable(name string) bool {
	ok, _ := e.Drop(name)
	return ok
}

// Drop is DropTable with the persistence error surfaced: ok reports
// whether the table was registered (or quarantined) and is now gone; a
// non-nil error means the durable drop could not be logged and nothing
// changed. Dropping a quarantined table discards its corrupt snapshot.
func (e *Engine) Drop(name string) (bool, error) {
	if e.dur != nil {
		return e.dur.drop(e, name)
	}
	e.mu.Lock()
	_, ok := e.tables[name]
	delete(e.tables, name)
	// Live indexes die with the table; their definitions (indexDefs) stay
	// so a re-register rebuilds them.
	delete(e.indexes, name)
	delete(e.idxQuarantined, name)
	e.mu.Unlock()
	if ok {
		e.bumpEpoch()
	}
	return ok, nil
}

// Space returns the engine's simulated address space (for constructing
// columns directly with the internal packages).
func (e *Engine) Space() *mach.AddrSpace { return e.space }

// SaveTable persists a registered table to path in the binary table
// format (see internal/storage).
func (e *Engine) SaveTable(name, path string) error {
	t, err := e.Table(name)
	if err != nil {
		return err
	}
	return storage.SaveFile(path, t)
}

// LoadTable reads a table from a binary table file and registers it under
// the name stored in the file. It returns that name.
//
// Transient load faults (modelled by the storage.load fault-injection
// site) are retried with backoff per the governance LoadRetries /
// LoadRetryBackoff knobs; deterministic failures — corrupt files
// (*ChecksumError), format errors — are never retried.
func (e *Engine) LoadTable(path string) (string, error) {
	return e.LoadTableContext(context.Background(), path)
}

// LoadTableContext is LoadTable honouring ctx between retry attempts.
func (e *Engine) LoadTableContext(ctx context.Context, path string) (string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	gcfg := e.gov.Config()
	var t *column.Table
	attempts, err := govern.Retry(ctx, gcfg.LoadRetries, gcfg.LoadRetryBackoff, storage.Transient, func() error {
		var lerr error
		t, lerr = storage.LoadFile(path, e.space)
		return lerr
	})
	e.gov.NoteLoadRetries(int64(attempts - 1))
	if err != nil {
		return "", err
	}
	if err := e.registerAs(t, storage.RecordLoad); err != nil {
		return "", err
	}
	return t.Name(), nil
}

// LoadCSV imports a CSV file (header fields "name:type", empty cells are
// NULL) and registers it as tableName.
func (e *Engine) LoadCSV(r io.Reader, tableName string) error {
	t, err := storage.ReadCSV(r, e.space, tableName)
	if err != nil {
		return err
	}
	return e.Register(t)
}

// LoadCSVFile is LoadCSV reading from a file path.
func (e *Engine) LoadCSVFile(path, tableName string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.LoadCSV(f, tableName)
}

// TableBuilder assembles a table column by column. Errors accumulate and
// are reported by Finish.
type TableBuilder struct {
	eng *Engine
	tbl *column.Table
	err error
	// indexCols are columns to build secondary indexes on after Finish
	// registers the table (see Index).
	indexCols []string
}

// CreateTable starts building a new table.
func (e *Engine) CreateTable(name string) *TableBuilder {
	return &TableBuilder{eng: e, tbl: column.NewTable(e.space, name)}
}

func (b *TableBuilder) add(c *column.Column) *TableBuilder {
	if b.err == nil {
		b.err = b.tbl.AddColumn(c)
	}
	return b
}

// Int32 adds an int32 column.
func (b *TableBuilder) Int32(name string, vals []int32) *TableBuilder {
	return b.add(column.FromInt32s(b.eng.space, name, vals))
}

// Int64 adds an int64 column.
func (b *TableBuilder) Int64(name string, vals []int64) *TableBuilder {
	return b.add(column.FromInt64s(b.eng.space, name, vals))
}

// Float64 adds a float64 column.
func (b *TableBuilder) Float64(name string, vals []float64) *TableBuilder {
	return b.add(column.FromFloat64s(b.eng.space, name, vals))
}

// Float32 adds a float32 column.
func (b *TableBuilder) Float32(name string, vals []float32) *TableBuilder {
	return b.add(column.FromFloat32s(b.eng.space, name, vals))
}

// Column adds a column of any supported type from rendered values.
func (b *TableBuilder) Column(name, typeName string, vals []string) *TableBuilder {
	if b.err != nil {
		return b
	}
	t, err := expr.ParseType(typeName)
	if err != nil {
		b.err = err
		return b
	}
	c := column.New(b.eng.space, name, t, len(vals))
	for i, s := range vals {
		v, err := expr.ParseValue(t, s)
		if err != nil {
			b.err = fmt.Errorf("column %s row %d: %v", name, i, err)
			return b
		}
		c.Set(i, v)
	}
	return b.add(c)
}

// NullsAt marks the given rows of a previously added column as NULL.
// SQL semantics apply: NULL rows never satisfy a WHERE predicate.
func (b *TableBuilder) NullsAt(column string, rows []int) *TableBuilder {
	if b.err != nil {
		return b
	}
	c, err := b.tbl.Column(column)
	if err != nil {
		b.err = err
		return b
	}
	for _, r := range rows {
		if r < 0 || r >= c.Len() {
			b.err = fmt.Errorf("fusedscan: NULL row %d out of range for column %q", r, column)
			return b
		}
		c.SetNull(r)
	}
	return b
}

// Pack re-encodes previously added integer columns bit-packed with
// frame-of-reference chunks (DESIGN.md §15): scans filter directly over
// the packed words without decoding, and predicates whose literal falls
// outside a column's stored range collapse at plan time. NULLs added via
// NullsAt before the Pack call are preserved; float columns cannot be
// packed. Call with no names to pack every packable column.
func (b *TableBuilder) Pack(columns ...string) *TableBuilder {
	if b.err != nil {
		return b
	}
	if len(columns) == 0 {
		for _, c := range b.tbl.Columns() {
			if c.Type().Integer() {
				columns = append(columns, c.Name())
			}
		}
	}
	for _, name := range columns {
		if err := b.tbl.PackColumn(name); err != nil {
			b.err = err
			return b
		}
	}
	return b
}

// Index schedules secondary indexes on the named columns: Finish builds
// them right after registration (equivalent to CREATE INDEX ON t(col) per
// column). The columns must exist when Finish runs.
func (b *TableBuilder) Index(cols ...string) *TableBuilder {
	b.indexCols = append(b.indexCols, cols...)
	return b
}

// ClusterBy physically sorts the table on one column — the CLUSTER BY
// table option. Rows are reordered in the value order ORDER BY uses (NaN
// above +Inf, NULLs last, ties keep insertion order), so chunk zone maps
// over that column become tight ranges and scans with cluster-key
// predicates prune most chunks. Call after the data columns are added
// and before Pack (packed chunks are immutable).
func (b *TableBuilder) ClusterBy(col string) *TableBuilder {
	if b.err != nil {
		return b
	}
	sorted, err := clusterTable(b.tbl, col)
	if err != nil {
		b.err = err
		return b
	}
	b.tbl = sorted
	return b
}

// Finish registers the table with the engine and builds any indexes
// scheduled with Index.
func (b *TableBuilder) Finish() error {
	if b.err != nil {
		return b.err
	}
	if err := b.eng.Register(b.tbl); err != nil {
		return err
	}
	for _, col := range b.indexCols {
		if err := b.eng.CreateIndex(b.tbl.Name(), col); err != nil {
			return err
		}
	}
	return nil
}

// Query parses, plans, optimizes, JIT-compiles and executes a SQL
// statement. Under Config.Simulate it runs on a fresh simulated CPU with
// cold caches (the paper's measurement discipline); on the native path no
// machine model is built. It is QueryContext with a background context.
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryContext(context.Background(), sql)
}

// Stage names used in QueryError.
const (
	stageParse     = "parse"
	stagePlan      = "plan"
	stageTranslate = "translate"
	stageExecute   = "execute"
)

// recoverStage converts a panic in a query-processing stage into a
// *QueryError, so internal panics fail one call instead of the process.
// Every entry point that plans or runs a statement defers it; out is the
// entry point's result, zeroed on a panic.
func recoverStage[T any](stage *string, sql string, out *T, err *error) {
	if r := recover(); r != nil {
		var zero T
		*out = zero
		*err = &QueryError{
			Stage:    *stage,
			Query:    sql,
			Err:      fmt.Errorf("panic: %v", r),
			Panicked: true,
			Stack:    string(debug.Stack()),
		}
	}
}

// QueryContext is Query with cooperative cancellation and panic isolation.
//
// The context is checked before any work starts (an already-cancelled or
// expired context returns its error immediately, before planning), and
// execution honours it at chunk boundaries during table scans and every
// few thousand rows in the materializing operators, so cancelling a long
// scan aborts it promptly with ctx.Err().
//
// A panic in any stage of query processing is recovered and returned as a
// *QueryError carrying the stage, the SQL text and the captured stack; the
// engine remains fully usable afterwards. When the JIT compiler fails (or
// its circuit breaker is open), the query is answered on the scalar scan
// path instead and the Result is marked Degraded.
//
// Governance (see SetGovernance): when a DefaultQueryTimeout is configured
// and ctx carries no deadline, the default is applied. The query then
// passes admission control — under saturation it may wait in the bounded
// admission queue and be shed with ErrOverloaded. When a per-query memory
// budget is configured, materialization points (position lists, sort keys,
// projected rows) charge it and the query fails with ErrMemoryBudget
// instead of allocating without bound.
func (e *Engine) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return e.QueryWith(ctx, sql, QueryOptions{})
}

// Explain describes how a statement would execute: the logical plan before
// and after optimization, the applied rules, the physical plan, and the
// JIT-generated source of every fused operator.
type Explain struct {
	LogicalPlan   string
	OptimizedPlan string
	AppliedRules  []string
	PhysicalPlan  string
	JITSources    []string
	JITKeys       []string
	// AccessPath is the cost-based access-path decision: "index(col)
	// est=… cost=… vs scan=…" when index probes were chosen, or a
	// "scan …" string recording why not. Empty for plans the rule does
	// not apply to (joins, plans without a scan).
	AccessPath string
	// Hint echoes the statement's plan hint ("NO_INDEX", "INDEX(t col)"),
	// empty when the statement carries none.
	Hint string
}

// ExplainQuery plans a statement without executing it, exactly as
// QueryContext would plan it: LogicalPlan is the plan with its literals
// bound, before optimization. A statement with $n placeholders has no
// values to plan with and fails as Query does. Like QueryContext, it
// recovers panics in any planning stage into a *QueryError.
func (e *Engine) ExplainQuery(sql string) (ex *Explain, err error) {
	stage := stageParse
	defer recoverStage(&stage, sql, &ex, &err)
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	shaped := shapeOf(sel)
	ex = &Explain{}
	plan, err := e.plan(&shaped, nil, &stage, &ex.LogicalPlan)
	if err != nil {
		return nil, err
	}
	ex.OptimizedPlan = plan.Format()
	ex.AppliedRules = plan.AppliedRules
	ex.AccessPath = plan.AccessPath
	if sel.Hint != nil {
		ex.Hint = sel.Hint.String()
	}

	stage = stageTranslate
	opts, err := e.Config().options()
	if err != nil {
		return nil, err
	}
	phys, err := pqp.Translate(plan, e.compiler, opts)
	if err != nil {
		return nil, err
	}
	ex.PhysicalPlan = phys.Format()
	for _, p := range phys.Programs {
		ex.JITSources = append(ex.JITSources, p.Source)
		ex.JITKeys = append(ex.JITKeys, p.Sig.Key())
	}
	return ex, nil
}

// ScanResult is the outcome of a direct (non-SQL) scan.
type ScanResult struct {
	Count     int
	Positions []uint32
	// Report carries the simulated hardware counters when the engine runs
	// with Config.Simulate; nil on the native path.
	Report *PerfReport
	// ChunksPruned counts the 64 Ki-row chunks zone-map pruning skipped.
	ChunksPruned int
	// Encoding names the storage encoding of the chain's predicate
	// columns ("plain", "packed" or "mixed"); BytesScanned totals the
	// stored value bytes addressed after pruning (packed word spans,
	// plain lanes).
	Encoding     string
	BytesScanned int64
	// Cores is how many cores scanned the chunks: 1, or up to Config.Cores
	// when at least two chunks survive pruning.
	Cores int
	// Degraded is set when JIT compilation failed and the scan fell back
	// to the scalar kernel; DegradedReason records why.
	Degraded       bool
	DegradedReason string
}

// Scan starts a direct predicate-chain scan on a table, bypassing SQL —
// the API benchmarks and embedding applications use. It runs as the plan
// a query's fused chain becomes, on the same governed path.
type Scan struct {
	eng   *Engine
	tbl   *column.Table
	preds []expr.Predicate
	err   error
}

// NewScan begins building a chain scan over a registered table.
func (e *Engine) NewScan(table string) *Scan {
	t, err := e.Table(table)
	return &Scan{eng: e, tbl: t, err: err}
}

// Where appends a predicate: column OP literal. The literal is parsed
// according to the column's type.
func (s *Scan) Where(col, op, literal string) *Scan {
	if s.err != nil {
		return s
	}
	c, err := s.tbl.Column(col)
	if err != nil {
		s.err = err
		return s
	}
	cmpOp, err := expr.ParseCmpOp(op)
	if err != nil {
		s.err = err
		return s
	}
	v, err := expr.ParseValue(c.Type(), literal)
	if err != nil {
		s.err = err
		return s
	}
	s.preds = append(s.preds, expr.Predicate{Column: col, Op: cmpOp, Value: v})
	return s
}

// WhereIsNull appends a "column IS NULL" predicate.
func (s *Scan) WhereIsNull(col string) *Scan { return s.whereNull(col, expr.PredIsNull) }

// WhereIsNotNull appends a "column IS NOT NULL" predicate.
func (s *Scan) WhereIsNotNull(col string) *Scan { return s.whereNull(col, expr.PredIsNotNull) }

func (s *Scan) whereNull(col string, kind expr.PredKind) *Scan {
	if s.err != nil {
		return s
	}
	if _, err := s.tbl.Column(col); err != nil {
		s.err = err
		return s
	}
	s.preds = append(s.preds, expr.Predicate{Column: col, Kind: kind})
	return s
}

// Run executes the chain with the engine's configuration, returning the
// qualifying positions and, under Config.Simulate, the simulated
// performance report.
func (s *Scan) Run() (*ScanResult, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run honouring ctx. The chain runs in the order the
// predicates were added, as one fused scan over the 64 Ki-row chunks
// zone-map pruning keeps, on up to Config.Cores cores, through the path
// QueryContext takes: admission control, the default deadline, the memory
// budget (ErrMemoryBudget), cancellation between chunks (ctx.Err()), the
// scalar fallback when JIT compilation fails (Degraded), and panic
// recovery into a *QueryError.
func (s *Scan) RunContext(ctx context.Context) (*ScanResult, error) {
	if s.err != nil {
		return nil, s.err
	}
	if len(s.preds) == 0 {
		return nil, fmt.Errorf("fusedscan: scan of %s has an empty predicate chain", s.tbl.Name())
	}
	var positions []uint32
	sink := func(b pqp.Batch, _ [][]string) error {
		for _, rel := range b.Sel {
			positions = append(positions, b.Base+rel)
		}
		return nil
	}
	// The plan is not optimized, so the chain keeps the caller's order.
	makePlan := func(*string) (*lqp.Plan, *Result, error) {
		return &lqp.Plan{Root: &lqp.Scan{Table: s.tbl, Preds: s.preds}, Table: s.tbl}, nil, nil
	}
	res, err := s.eng.execute(ctx, s.text(), makePlan, execOpts{sink: sink})
	if err != nil {
		return nil, err
	}
	st := res.Operators[0]
	return &ScanResult{
		Count:          int(res.Count),
		Positions:      positions,
		Report:         res.Report,
		ChunksPruned:   int(st.ChunksPruned),
		Encoding:       st.Encoding,
		BytesScanned:   st.BytesScanned,
		Cores:          st.Cores,
		Degraded:       res.Degraded,
		DegradedReason: res.DegradedReason,
	}, nil
}

// text names the scan in a *QueryError, e.g. "SCAN t WHERE a = 5 AND b = 2".
func (s *Scan) text() string {
	text, sep := "SCAN "+s.tbl.Name(), " WHERE "
	for _, p := range s.preds {
		text += sep + p.String()
		sep = " AND "
	}
	return text
}
