package fusedscan

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fusedscan/internal/faultinject"
)

// TestQueryAdmissionShedsWhenSaturated holds the engine's only admission
// slot and checks that the next query is shed with the typed overload
// error — and runs fine once the slot frees.
func TestQueryAdmissionShedsWhenSaturated(t *testing.T) {
	eng, want := buildTestEngine(t, 2000, 0.5, 0.5)
	g := DefaultGovernance()
	g.MaxConcurrent = 1
	g.MaxQueue = 0 // no queueing: excess queries shed immediately
	eng.SetGovernance(g)

	release, err := eng.gov.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %T, want *OverloadedError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}

	release()
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if res.Count != int64(want) {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
	st := eng.Stats()
	if st.Rejected != 1 {
		t.Errorf("Stats().Rejected = %d, want 1", st.Rejected)
	}
	if st.Admitted < 1 {
		t.Errorf("Stats().Admitted = %d, want >= 1", st.Admitted)
	}
}

// TestQueryAdmissionQueueWaitTimeout queues a query behind a held slot
// long enough to exhaust QueueWait.
func TestQueryAdmissionQueueWaitTimeout(t *testing.T) {
	eng, _ := buildTestEngine(t, 100, 0.5, 0.5)
	g := DefaultGovernance()
	g.MaxConcurrent = 1
	g.MaxQueue = 4
	g.QueueWait = 20 * time.Millisecond
	eng.SetGovernance(g)

	release, err := eng.gov.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	_, err = eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Errorf("query shed after %v, want ~QueueWait (20ms) in the queue", waited)
	}
	if st := eng.Stats(); st.QueueTimeouts != 1 {
		t.Errorf("Stats().QueueTimeouts = %d, want 1", st.QueueTimeouts)
	}
}

// TestQueryAdmissionFaultInjected drives the govern.admit site through the
// full engine path.
func TestQueryAdmissionFaultInjected(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, want := buildTestEngine(t, 1000, 0.5, 0.5)

	faultinject.Arm(faultinject.SiteGovernAdmit, 1, faultinject.ModeError)
	_, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var fe *faultinject.Error
	if !errors.As(err, &fe) || fe.Site != faultinject.SiteGovernAdmit {
		t.Fatalf("injected cause not preserved: %v", err)
	}
	// Fault consumed: the engine serves normally afterwards.
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestQueryMemoryBudget checks that a materializing query fails with the
// typed budget error under a tight budget and succeeds once raised.
func TestQueryMemoryBudget(t *testing.T) {
	eng, _ := buildTestEngine(t, 20000, 0.5, 0.5)
	const q = "SELECT a, b FROM tbl WHERE a = 5"

	baseline, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	g := DefaultGovernance()
	g.MemBudgetBytes = 32 << 10 // ~10k projected rows need far more
	eng.SetGovernance(g)
	_, err = eng.Query(q)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	var me *MemoryBudgetError
	if !errors.As(err, &me) {
		t.Fatalf("err = %T, want *MemoryBudgetError", err)
	}
	if me.BudgetBytes != 32<<10 {
		t.Errorf("BudgetBytes = %d, want %d", me.BudgetBytes, 32<<10)
	}
	if st := eng.Stats(); st.MemBudgetDenials < 1 {
		t.Errorf("Stats().MemBudgetDenials = %d, want >= 1", st.MemBudgetDenials)
	}

	g.MemBudgetBytes = 64 << 20
	eng.SetGovernance(g)
	res, err := eng.Query(q)
	if err != nil {
		t.Fatalf("query under generous budget: %v", err)
	}
	if len(res.Rows) != len(baseline.Rows) {
		t.Errorf("rows = %d, want %d (same as ungoverned)", len(res.Rows), len(baseline.Rows))
	}
}

// TestStreamedProjectionHoldsOneWindow: a streamed projection is charged
// for the windows in flight, not for every row it ever produced, so a
// result far larger than the budget streams in full on both execution
// paths, while a query that keeps its rows is still charged for all of
// them.
func TestStreamedProjectionHoldsOneWindow(t *testing.T) {
	const n = 1 << 20
	a, b := make([]int32, n), make([]int32, n)
	for i := range n {
		a[i], b[i] = int32(i%4), int32(i)
	}
	eng := NewEngine()
	if err := eng.CreateTable("t").Int32("a", a).Int32("b", b).Finish(); err != nil {
		t.Fatal(err)
	}
	g := DefaultGovernance()
	g.MemBudgetBytes = 16 << 20 // 96 B a row: about 175 000 kept rows
	eng.SetGovernance(g)
	native := NativeConfig()
	native.Cores = 2
	for _, cfg := range []Config{DefaultConfig(), native} {
		rows := 0
		res, err := eng.QueryWith(context.Background(), "SELECT a, b FROM t WHERE a = 1", QueryOptions{Config: &cfg,
			Stream: func(_ []string, r [][]string) error {
				rows += len(r)
				return nil
			}})
		if err != nil {
			t.Fatalf("simulate=%v: streamed %d rows, then %v", cfg.Simulate, rows, err)
		}
		if rows != n/4 || res.Count != n/4 {
			t.Errorf("simulate=%v: streamed %d rows, count %d; want %d", cfg.Simulate, rows, res.Count, n/4)
		}
	}
	// Kept, the 100 000 rows of the materialization cap outgrow half the
	// budget.
	g.MemBudgetBytes = 8 << 20
	eng.SetGovernance(g)
	_, err := eng.QueryWith(context.Background(), "SELECT a, b FROM t WHERE a = 1", QueryOptions{Config: &native})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("materialized 100000 rows: err = %v, want ErrMemoryBudget", err)
	}
}

// TestScanMemoryBudget checks the direct-scan path charges position lists.
func TestScanMemoryBudget(t *testing.T) {
	eng, want := buildTestEngine(t, 20000, 0.5, 0.5)
	g := DefaultGovernance()
	g.MemBudgetBytes = 1 << 10 // ~10k positions need ~40 KB
	eng.SetGovernance(g)

	_, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}

	g.MemBudgetBytes = 0
	eng.SetGovernance(g)
	res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestScanAdmissionShedsWhenSaturated: a direct scan passes the same
// admission control as a query, so with the only slot held by a streaming
// query it is shed with the typed overload error.
func TestScanAdmissionShedsWhenSaturated(t *testing.T) {
	eng, want := buildTestEngine(t, 2000, 0.5, 0.5)
	g := DefaultGovernance()
	g.MaxConcurrent = 1
	g.MaxQueue = 0
	eng.SetGovernance(g)

	holding, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		_, err := eng.QueryWith(context.Background(), "SELECT a FROM tbl WHERE a = 5", QueryOptions{
			Stream: func([]string, [][]string) error {
				if first {
					first = false
					close(holding)
					<-release
				}
				return nil
			},
		})
		done <- err
	}()
	<-holding
	_, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Errorf("err = %v (%T), want *OverloadedError", err, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("streaming query: %v", err)
	}
	res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatalf("scan after release: %v", err)
	}
	if res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestScanDefaultTimeout: the default query deadline applies to a direct
// scan whose context has none.
func TestScanDefaultTimeout(t *testing.T) {
	eng, want := buildTestEngine(t, 50000, 0.5, 0.5)
	g := DefaultGovernance()
	g.DefaultQueryTimeout = time.Nanosecond
	eng.SetGovernance(g)

	_, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").RunContext(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the default timeout", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").RunContext(ctx)
	if err != nil {
		t.Fatalf("scan with caller deadline: %v", err)
	}
	if res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestQueryDefaultTimeout: a configured default deadline applies when the
// caller's context has none, and never overrides a caller deadline.
func TestQueryDefaultTimeout(t *testing.T) {
	eng, want := buildTestEngine(t, 50000, 0.5, 0.5)
	g := DefaultGovernance()
	g.DefaultQueryTimeout = time.Nanosecond
	eng.SetGovernance(g)

	_, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the default timeout", err)
	}

	// A caller-supplied deadline wins over the (absurd) default.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := eng.QueryContext(ctx, "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatalf("query with caller deadline: %v", err)
	}
	if res.Count != int64(want) {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestEngineBreakerTripAndRecover drives the JIT circuit breaker through
// trip, open rejection (still answering queries, degraded), and half-open
// recovery — all through the public Query path.
func TestEngineBreakerTripAndRecover(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, want := buildTestEngine(t, 2000, 0.5, 0.5)
	g := DefaultGovernance()
	g.Breaker = BreakerSettings{FailureThreshold: 2, Cooldown: 30 * time.Millisecond, MaxCooldown: time.Second}
	eng.SetGovernance(g)
	const q = "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2"

	// Two consecutive injected compile failures: each query degrades to
	// the scalar path (still correct) and the breaker trips.
	for i := 0; i < 2; i++ {
		faultinject.Arm(faultinject.SiteJITCompile, 1, faultinject.ModeError)
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("degraded query %d: %v", i, err)
		}
		if !res.Degraded || res.Count != int64(want) {
			t.Fatalf("query %d: degraded=%v count=%d, want degraded=true count=%d", i, res.Degraded, res.Count, want)
		}
	}
	faultinject.Reset()
	st := eng.Stats()
	if st.BreakerState != "open" {
		t.Fatalf("BreakerState = %q, want open (stats: %+v)", st.BreakerState, st)
	}
	if st.BreakerTrips < 1 {
		t.Errorf("BreakerTrips = %d, want >= 1", st.BreakerTrips)
	}

	// While open: no compile attempt, query still answered (degraded) and
	// the degradation reason names the breaker.
	res, err := eng.Query(q)
	if err != nil {
		t.Fatalf("query while breaker open: %v", err)
	}
	if !res.Degraded || res.Count != int64(want) {
		t.Fatalf("open-breaker query: degraded=%v count=%d, want degraded=true count=%d", res.Degraded, res.Count, want)
	}
	if !strings.Contains(res.DegradedReason, "circuit breaker open") {
		t.Errorf("DegradedReason = %q, want mention of the open breaker", res.DegradedReason)
	}
	if st := eng.Stats(); st.JITBreakerRejects < 1 {
		t.Errorf("JITBreakerRejects = %d, want >= 1", st.JITBreakerRejects)
	}

	// After the cooldown the half-open probe compiles and the engine is
	// back on the fused path.
	time.Sleep(40 * time.Millisecond)
	res, err = eng.Query(q)
	if err != nil {
		t.Fatalf("query after cooldown: %v", err)
	}
	if res.Degraded || !res.Fused || res.Count != int64(want) {
		t.Fatalf("recovered query: degraded=%v fused=%v count=%d, want fused count=%d", res.Degraded, res.Fused, res.Count, want)
	}
	if st := eng.Stats(); st.BreakerState != "closed" {
		t.Errorf("BreakerState after recovery = %q, want closed", st.BreakerState)
	}
}

// saveTestTable persists the "tbl" table of a test engine and returns the
// file path.
func saveTestTable(t *testing.T, eng *Engine) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tbl.fscn")
	if err := eng.SaveTable("tbl", path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadTableRetriesTransientFault: a single injected storage.load fault
// is absorbed by the engine's bounded retry.
func TestLoadTableRetriesTransientFault(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	src, want := buildTestEngine(t, 500, 0.5, 0.5)
	path := saveTestTable(t, src)

	eng := NewEngine()
	faultinject.Arm(faultinject.SiteStorageLoad, 1, faultinject.ModeError)
	name, err := eng.LoadTable(path)
	if err != nil {
		t.Fatalf("LoadTable with one transient fault: %v", err)
	}
	if name != "tbl" {
		t.Errorf("loaded name = %q, want tbl", name)
	}
	if st := eng.Stats(); st.LoadRetries != 1 {
		t.Errorf("Stats().LoadRetries = %d, want 1", st.LoadRetries)
	}
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

// TestLoadTableNoRetriesFails: with retries disabled the same fault is
// fatal — retry is policy, not magic.
func TestLoadTableNoRetriesFails(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	src, _ := buildTestEngine(t, 100, 0.5, 0.5)
	path := saveTestTable(t, src)

	eng := NewEngine()
	g := DefaultGovernance()
	g.LoadRetries = 0
	eng.SetGovernance(g)
	faultinject.Arm(faultinject.SiteStorageLoad, 1, faultinject.ModeError)
	if _, err := eng.LoadTable(path); err == nil {
		t.Fatal("LoadTable succeeded despite fault and LoadRetries=0")
	}
}

// TestLoadTableChecksumNotRetried: corruption is deterministic, so the
// retry loop must not spin on it.
func TestLoadTableChecksumNotRetried(t *testing.T) {
	src, _ := buildTestEngine(t, 500, 0.5, 0.5)
	path := saveTestTable(t, src)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	g := DefaultGovernance()
	g.LoadRetries = 5
	g.LoadRetryBackoff = time.Millisecond
	eng.SetGovernance(g)
	_, err = eng.LoadTable(path)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChecksumError", err)
	}
	if st := eng.Stats(); st.LoadRetries != 0 {
		t.Errorf("Stats().LoadRetries = %d, want 0 (corruption must not be retried)", st.LoadRetries)
	}
}

// TestGovernanceConfigRoundTrip: SetGovernance is observable and the
// defaults remain fully permissive.
func TestGovernanceConfigRoundTrip(t *testing.T) {
	eng := NewEngine()
	def := eng.Governance()
	if def.MaxConcurrent != 0 || def.MemBudgetBytes != 0 || def.DefaultQueryTimeout != 0 {
		t.Errorf("default governance not permissive: %+v", def)
	}
	g := DefaultGovernance()
	g.MaxConcurrent = 7
	g.MemBudgetBytes = 123
	eng.SetGovernance(g)
	got := eng.Governance()
	if got.MaxConcurrent != 7 || got.MemBudgetBytes != 123 {
		t.Errorf("Governance() = %+v after SetGovernance", got)
	}
}
