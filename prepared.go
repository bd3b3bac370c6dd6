package fusedscan

// The one planning path and the shared governed execution path.
//
// Every SELECT is planned the same way, whichever entry point runs it
// (Query, QueryContext, QueryWith, Prepared.Execute*, ExplainQuery): the
// statement is normalized to a canonical shape (every literal replaced by
// a $n placeholder), the shape's built but unoptimized logical plan — its
// skeleton — is fetched from the engine's LRU plan cache (or built and
// planted there), the literals and the caller's arguments are bound into a
// clone of it, and the bound clone is optimized with every value in view.
// Selectivity estimates, predicate order, unsatisfiable-predicate pruning
// and the index-vs-scan choice therefore see the same literals on every
// path, so a prepared statement runs exactly the plan the same SQL gets ad
// hoc. A cache hit skips parsing the shape and building the plan; the
// optimizer runs on every execution, which is cheap because statistics
// live on the columns, computed once, and estimates are binary searches.
// The cache is keyed by (shape, catalog/config epoch), so Register, DropTable
// and SetConfig invalidate every cached skeleton at once.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"fusedscan/internal/govern"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/parallel"
	"fusedscan/internal/pqp"
	"fusedscan/internal/sqlparse"
)

// QueryOptions extends QueryContext for the serving layer: per-query
// configuration overrides, $n argument binding, batch-streamed results and
// admission routing.
type QueryOptions struct {
	// Config overrides the engine's execution configuration for this query
	// only (e.g. a native-path session on a simulate-default engine). Nil
	// uses the engine configuration.
	Config *Config
	// Args bind the statement's $n placeholders, $1 first. Required exactly
	// when the statement has placeholders.
	Args []string
	// Stream, when non-nil, receives rendered result rows batch by batch as
	// they leave the pipeline instead of accumulating in Result.Rows; peak
	// memory stays O(one batch) regardless of result size. columns repeats
	// the projected column names on every call. Aggregate queries deliver
	// their single row through the same callback after the pipeline drains.
	// A non-nil return aborts the query with that error.
	Stream func(columns []string, rows [][]string) error
	// UsePlanCache is ignored: every statement is planned through the plan
	// cache.
	//
	// Deprecated: the field no longer changes which plan runs.
	UsePlanCache bool
	// Session is an opaque fairness key for admission control: when the
	// queue is full, the session holding the most queued queries is
	// displaced before anyone else is shed. Empty groups the query with all
	// other anonymous traffic. The serving layer passes the HTTP session id
	// (or the client address).
	Session string
	// Cheap marks the query for the admission cheap lane — a small reserve
	// of extra concurrency slots for pre-planned short work, so a queue
	// full of heavy ad-hoc scans cannot starve it. Prepared statements set
	// this automatically.
	Cheap bool
}

// execOpts is the internal slice of QueryOptions the shared execution path
// consumes.
type execOpts struct {
	config  *Config
	stream  func(columns []string, rows [][]string) error
	session string
	cheap   bool
	// sink, when non-nil, receives every batch in place of the row
	// renderer (the direct Scan API collects positions through it).
	sink pqp.BatchSink
}

// QueryWith is QueryContext with QueryOptions: Args bind the statement's
// $n placeholders, and Config, Stream, Session and Cheap shape its
// execution. The statement is planned like every other (see plan).
func (e *Engine) QueryWith(ctx context.Context, sql string, qo QueryOptions) (*Result, error) {
	makePlan := func(stage *string) (*lqp.Plan, *Result, error) {
		stmt, err := sqlparse.ParseStatement(sql)
		if err != nil {
			return nil, nil, err
		}
		if stmt.Select == nil {
			if len(qo.Args) > 0 {
				return nil, nil, fmt.Errorf("fusedscan: statement wants 0 argument(s), got %d", len(qo.Args))
			}
			// Index DDL rides the same governed entry point: admission
			// control already ran, and CreateIndex charges its build
			// against the memory budget.
			*stage = stageExecute
			res, err := e.execDDL(stmt)
			return nil, res, err
		}
		sel := shapeOf(stmt.Select)
		plan, err := e.plan(&sel, qo.Args, stage, nil)
		return plan, nil, err
	}
	return e.execute(ctx, sql, makePlan, execOpts{config: qo.Config, stream: qo.Stream, session: qo.Session, cheap: qo.Cheap})
}

// shapedSelect is a SELECT normalized for the plan cache: its canonical
// shape (the cache key), the slots that rebuild the shape's argument list
// from captured literals and caller arguments, and how many $n arguments
// the caller supplies.
type shapedSelect struct {
	shape     string
	slots     []sqlparse.Slot
	numParams int
}

func shapeOf(sel *sqlparse.Select) shapedSelect {
	shape, slots := sqlparse.Normalize(sel)
	return shapedSelect{shape: shape, slots: slots, numParams: sel.NumParams}
}

// plan is the one planning path (see the file comment): it binds args
// into a clone of sel's cached skeleton and optimizes the clone. logical,
// when non-nil, receives the bound plan as it stood before optimization.
func (e *Engine) plan(sel *shapedSelect, args []string, stage *string, logical *string) (*lqp.Plan, error) {
	if len(args) != sel.numParams {
		if len(args) == 0 {
			return nil, fmt.Errorf("fusedscan: statement has %d unbound parameter(s); use Prepare/Execute or QueryWith with Args", sel.numParams)
		}
		return nil, fmt.Errorf("fusedscan: statement wants %d argument(s), got %d", sel.numParams, len(args))
	}
	skel, err := e.skeleton(sel.shape, stage)
	if err != nil {
		return nil, err
	}
	bound, err := sqlparse.BindSlots(sel.slots, sel.numParams, args)
	if err != nil {
		return nil, err
	}
	*stage = stagePlan
	plan := skel.Clone()
	if err := plan.Bind(bound); err != nil {
		return nil, err
	}
	if logical != nil {
		*logical = plan.Format()
	}
	e.optimizer.Optimize(plan)
	return plan, nil
}

// SetPlanCacheCapacity resizes the prepared-plan cache (entries beyond the
// new capacity are evicted LRU-first). n <= 0 restores the default.
func (e *Engine) SetPlanCacheCapacity(n int) { e.plans.setCapacity(n) }

// skeleton returns the unoptimized plan skeleton for a normalized
// statement shape, consulting the shared plan cache. The shape is
// canonical SQL, so a miss simply re-parses it, builds the plan and caches
// it under the current catalog/config epoch. On a hit, parse and build are
// skipped.
func (e *Engine) skeleton(shape string, stage *string) (*lqp.Plan, error) {
	key := planKey{shape: shape, epoch: e.epoch.Load()}
	if p, ok := e.plans.get(key); ok {
		return p, nil
	}
	sel, err := sqlparse.Parse(shape)
	if err != nil {
		return nil, err
	}
	*stage = stagePlan
	plan, err := lqp.Build(sel, e)
	if err != nil {
		return nil, err
	}
	e.plans.put(key, plan)
	return plan, nil
}

// Prepared is a statement parsed and normalized once and executable many
// times with different arguments. It is a thin handle — the plan skeleton
// lives in the engine's shared plan cache, so Prepared values are cheap,
// safe for concurrent use, and automatically replan when the catalog or
// configuration changes underneath them.
type Prepared struct {
	eng     *Engine
	sqlText string
	shapedSelect
}

// Prepare parses and normalizes a statement and warms the plan cache with
// its skeleton. The statement may mix $n placeholders and literals;
// literals are captured and re-bound on every execution.
func (e *Engine) Prepare(sql string) (prep *Prepared, err error) {
	stage := stageParse
	defer recoverStage(&stage, sql, &prep, &err)
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	prep = &Prepared{eng: e, sqlText: sql, shapedSelect: shapeOf(sel)}
	if _, err := e.skeleton(prep.shape, &stage); err != nil {
		return nil, err
	}
	return prep, nil
}

// NumParams reports how many $n arguments Execute requires.
func (p *Prepared) NumParams() int { return p.numParams }

// Shape returns the normalized statement shape the plan cache is keyed by.
func (p *Prepared) Shape() string { return p.shape }

// SQL returns the original statement text.
func (p *Prepared) SQL() string { return p.sqlText }

// Execute runs the prepared statement with the given arguments ($1 first).
func (p *Prepared) Execute(args ...string) (*Result, error) {
	return p.ExecuteContext(context.Background(), args...)
}

// ExecuteContext is Execute honouring ctx, with the same cancellation,
// panic-isolation and governance behaviour as Engine.QueryContext.
func (p *Prepared) ExecuteContext(ctx context.Context, args ...string) (*Result, error) {
	return p.ExecuteWith(ctx, QueryOptions{Args: args})
}

// ExecuteWith is ExecuteContext with QueryOptions. The statement is
// planned exactly as QueryWith plans the same SQL.
func (p *Prepared) ExecuteWith(ctx context.Context, qo QueryOptions) (*Result, error) {
	if len(qo.Args) != p.numParams {
		return nil, fmt.Errorf("fusedscan: prepared statement wants %d argument(s), got %d", p.numParams, len(qo.Args))
	}
	makePlan := func(stage *string) (*lqp.Plan, *Result, error) {
		plan, err := p.eng.plan(&p.shapedSelect, qo.Args, stage, nil)
		return plan, nil, err
	}
	// Prepared executions ride the admission cheap lane: they are the
	// short, repeated work the lane reserves headroom for.
	return p.eng.execute(ctx, p.sqlText, makePlan, execOpts{config: qo.Config, stream: qo.Stream, session: qo.Session, cheap: true})
}

// execute is the one governed execution path under QueryContext, QueryWith,
// Prepared.Execute* and Scan.Run*: admission control, default deadline, memory
// accounting, stage-tracked panic recovery, translation, the batch
// pipeline, and Result assembly. makePlan produces the bound, optimized
// logical plan (advancing *stage as it goes), or — for a DDL statement,
// which it runs itself — the statement's Result.
func (e *Engine) execute(ctx context.Context, sql string, makePlan func(stage *string) (*lqp.Plan, *Result, error), eo execOpts) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	gcfg := e.gov.Config()
	if gcfg.DefaultQueryTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, gcfg.DefaultQueryTimeout)
			defer cancel()
		}
	}
	release, aerr := e.gov.AdmitFor(ctx, govern.AdmitInfo{Session: eo.session, Cheap: eo.cheap})
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	acct := e.gov.NewAccountant()
	if acct != nil {
		ctx = govern.WithAccountant(ctx, acct)
	}
	stage := stageParse
	defer recoverStage(&stage, sql, &res, &err)

	plan, done, err := makePlan(&stage)
	if err != nil || done != nil {
		return done, err
	}

	stage = stageTranslate
	cfg := e.Config()
	if eo.config != nil {
		cfg = *eo.config
	}
	opts, err := cfg.options()
	if err != nil {
		return nil, err
	}
	opts.Params = e.params
	if !cfg.Simulate {
		// Native scans share the box: with k queries admitted (this one
		// among them), each may use the cores the other k-1 leave.
		// Simulated cores are modelled, so they keep the configured count.
		opts.Cores = min(opts.Cores, runtime.GOMAXPROCS(0)-int(e.gov.Running())+1)
	}
	// Streaming consumers drain rows batch-by-batch, so the projection's
	// default materialization cap (a guard against unbounded result memory)
	// is lifted; an explicit LIMIT still applies.
	opts.UnboundedRows = eo.stream != nil
	phys, err := pqp.Translate(plan, e.compiler, opts)
	if err != nil {
		return nil, err
	}

	stage = stageExecute
	// The machine model exists only to be reported: the native path runs
	// with none (a nil CPU charges nothing).
	var cpu *mach.CPU
	if cfg.Simulate {
		cpu = mach.New(e.params)
	}
	// Every batch leaves the plan with its rows rendered: streamed to the
	// caller, or kept per batch and copied into Result.Rows once, at its
	// final length.
	var batches [][][]string
	var aggRow []string
	nrows := 0
	cols := phys.Shape().Columns
	sink := func(b pqp.Batch, r [][]string) error {
		switch {
		case eo.sink != nil:
			// A raw sink keeps the positions it is handed: charge them as
			// retained memory, as the projection charges its rows.
			if err := acct.Charge(int64(len(b.Sel)) * 4); err != nil {
				return err
			}
			return eo.sink(b, r)
		case b.Aggregates != nil:
			aggRow = r[0]
		case len(r) == 0:
		case eo.stream != nil:
			return eo.stream(cols, r)
		default:
			batches = append(batches, r)
			nrows += len(r)
		}
		return nil
	}
	qres, err := phys.RunTo(ctx, cpu, sink)
	if err != nil {
		if pe := (*parallel.PanicError)(nil); errors.As(err, &pe) {
			// A panic recovered on a helper core fails the query as one on
			// this goroutine does.
			return nil, &QueryError{Stage: stage, Query: sql, Err: err, Panicked: true, Stack: pe.Stack}
		}
		return nil, err
	}
	res = &Result{
		Count:   qres.Count,
		Columns: qres.Columns,
		Fused:   len(phys.Programs) > 0 || phys.NativeScans > 0,
	}
	res.Degraded, res.DegradedReason = phys.Degraded()
	if cpu != nil {
		hits, _, cached := e.compiler.Stats()
		driver := cpu.Finish()
		report := driver.Report(&e.params)
		if perCore := phys.PerCore(); len(perCore) > 0 {
			// Parallel scan: the counter totals are driver + workers, and the
			// runtime comes from the shared-socket model over all cores (the
			// driver's downstream work counts as one more core).
			all := append(append([]mach.Counters{}, perCore...), driver)
			totals := driver
			for _, c := range perCore {
				totals = addCounters(totals, c)
			}
			report = totals.Report(&e.params)
			model := parallel.Combine(e.params, all)
			report.RuntimeMs = model.RuntimeMs
			report.RuntimeCycles = model.RuntimeMs * e.params.ClockGHz * 1e6
			report.MemCycles = model.MemMs * e.params.ClockGHz * 1e6
			report.AchievedGBs = model.AggregateGBs
		}
		pr := perfReport(report, phys.Programs, hits, cached)
		res.Report = &pr
	}
	for _, os := range phys.OperatorStats() {
		// The public OperatorStats mirrors pqp's field for field.
		res.Operators = append(res.Operators, OperatorStats(os))
		e.bytesScanned.Add(os.BytesScanned)
		e.idxProbes.Add(os.IndexProbes)
		e.idxRows.Add(os.IndexRows)
		if os.IndexProbes > 0 {
			e.idxScans.Add(1)
		}
		if os.Encoding == pqp.EncodingPacked || os.Encoding == pqp.EncodingMixed {
			e.packedScans.Add(1)
		}
		e.pipeBatches.Add(os.Batches)
		e.joinBuildRows.Add(os.BuildRows)
		e.joinProbeRows.Add(os.ProbeRows)
		e.joinBloomChecks.Add(os.BloomChecks)
		e.joinBloomPass.Add(os.BloomPass)
		e.groupsProduced.Add(os.Groups)
	}
	if len(res.Operators) > 0 {
		e.pipeRows.Add(res.Operators[0].RowsOut)
	}
	if qres.IsAggregate {
		// Aggregates render as a one-row result set under their labels;
		// Sum keeps the single-SUM convenience value.
		res.Aggregate = true
		res.Columns = qres.AggLabels
		if aggRow == nil {
			aggRow = []string{}
		}
		for i, label := range qres.AggLabels {
			if strings.HasPrefix(label, "sum(") && res.Sum == "" {
				res.Sum = aggRow[i]
			}
		}
		res.Rows = [][]string{aggRow}
	} else if nrows > 0 {
		res.Rows = make([][]string, 0, nrows)
		for _, r := range batches {
			res.Rows = append(res.Rows, r...)
		}
	}
	if eo.stream != nil && res.Aggregate {
		// Aggregate results flow through the same streaming callback so the
		// caller sees every row arrive one way.
		if serr := eo.stream(res.Columns, res.Rows); serr != nil {
			return nil, serr
		}
		res.Rows = nil
	}
	return res, nil
}
