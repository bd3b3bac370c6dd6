package fusedscan

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fusedscan/internal/faultinject"
)

func TestQueryContextExpiredDeadlineReturnsBeforeExecuting(t *testing.T) {
	eng, _ := buildTestEngine(t, 1000, 0.1, 0.5)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	res, err := eng.QueryContext(ctx, "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("result = %+v, want nil", res)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("expired-deadline query took %v, expected an immediate return", elapsed)
	}
}

func TestQueryContextCancelledContext(t *testing.T) {
	eng, _ := buildTestEngine(t, 1000, 0.1, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryContext(ctx, "SELECT COUNT(*) FROM tbl WHERE a = 5"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryContextNilContext(t *testing.T) {
	eng, want := buildTestEngine(t, 5000, 0.1, 0.5)
	res, err := eng.QueryContext(nil, "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2") //lint:ignore SA1012 nil context tolerance is part of the API contract
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
}

// buildBigEngine builds a single-column table large enough that a full
// scan takes macroscopic wall time in the emulator.
func buildBigEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	vals := make([]int32, rows)
	for i := range vals {
		vals[i] = int32(i % 1000)
	}
	eng := NewEngine()
	tb := eng.CreateTable("big")
	tb.Int32("x", vals)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestQueryContextCancelMidScanAbortsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-row scan in -short mode")
	}
	const rows = 10_000_000
	eng := buildBigEngine(t, rows)

	// Warm the operator cache so the timed run measures scanning, not
	// compilation bookkeeping.
	if _, err := eng.Query("SELECT COUNT(*) FROM big WHERE x < 2"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.QueryContext(ctx, "SELECT COUNT(*) FROM big WHERE x < 500")
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the scan get going
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not return within 10s")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled scan took %v, expected a prompt abort", elapsed)
	}
}

func TestQueryContextResultsMatchQuery(t *testing.T) {
	eng, want := buildTestEngine(t, 50000, 0.2, 0.3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := eng.QueryContext(ctx, "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("cancellable (chunked) execution count = %d, want %d", res.Count, want)
	}
}

func TestJITCompileFailureDegradesToScalar(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, want := buildTestEngine(t, 30000, 0.1, 0.5)

	faultinject.Arm(faultinject.SiteJITCompile, 1, faultinject.ModeError)
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Result.Degraded not set after injected compile failure")
	}
	if res.DegradedReason == "" || !strings.Contains(res.DegradedReason, "faultinject") {
		t.Fatalf("DegradedReason = %q", res.DegradedReason)
	}
	if res.Fused {
		t.Error("degraded result still claims a fused operator ran")
	}
	if res.Count != int64(want) {
		t.Fatalf("degraded count = %d, want %d (must match the scalar reference)", res.Count, want)
	}

	// The engine keeps answering fused once the fault clears.
	faultinject.Reset()
	res2, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Fused || res2.Degraded {
		t.Errorf("post-fault query: Fused=%v Degraded=%v, want fused and not degraded", res2.Fused, res2.Degraded)
	}
	if res2.Count != int64(want) {
		t.Fatalf("post-fault count = %d, want %d", res2.Count, want)
	}
}

func TestScanRunDegradesOnCompileFailure(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, want := buildTestEngine(t, 20000, 0.1, 0.5)

	faultinject.Arm(faultinject.SiteJITCompile, 1, faultinject.ModeError)
	res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatalf("degraded scan failed: %v", err)
	}
	if !res.Degraded || res.DegradedReason == "" {
		t.Fatalf("Degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
	if res.Count != want {
		t.Fatalf("degraded scan count = %d, want %d", res.Count, want)
	}
}

func TestKernelPanicReturnsQueryError(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, want := buildTestEngine(t, 10000, 0.1, 0.5)

	faultinject.Arm(faultinject.SiteKernelRun, 1, faultinject.ModePanic)
	_, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *QueryError", err, err)
	}
	if qe.Stage != "execute" {
		t.Errorf("stage = %q, want execute", qe.Stage)
	}
	if !qe.Panicked || qe.Stack == "" {
		t.Errorf("Panicked=%v len(Stack)=%d, want recovered panic with stack", qe.Panicked, len(qe.Stack))
	}
	if !strings.Contains(qe.Error(), "execute") || !strings.Contains(qe.Error(), "panic") {
		t.Errorf("Error() = %q", qe.Error())
	}

	// The process — and the engine — survive: the next query succeeds.
	faultinject.Reset()
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatalf("engine unusable after recovered panic: %v", err)
	}
	if res.Count != int64(want) {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
}

// TestScanKernelPanicReturnsQueryError: a kernel panic in a direct scan is
// recovered like one in a query, on both execution paths, and names the
// scan in the error.
func TestScanKernelPanicReturnsQueryError(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, want := buildTestEngine(t, 10000, 0.1, 0.5)
	for _, cfg := range []Config{DefaultConfig(), NativeConfig()} {
		if err := eng.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.SiteKernelRun, 1, faultinject.ModePanic)
		_, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("simulate=%v: err = %v (%T), want *QueryError", cfg.Simulate, err, err)
		}
		if qe.Stage != "execute" || !qe.Panicked || qe.Query != "SCAN tbl WHERE a = 5 AND b = 2" {
			t.Errorf("simulate=%v: Stage=%q Panicked=%v Query=%q", cfg.Simulate, qe.Stage, qe.Panicked, qe.Query)
		}

		faultinject.Reset()
		res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
		if err != nil {
			t.Fatalf("simulate=%v: engine unusable after recovered panic: %v", cfg.Simulate, err)
		}
		if res.Count != want {
			t.Fatalf("simulate=%v: count = %d, want %d", cfg.Simulate, res.Count, want)
		}
	}
}

func TestQueryErrorUnwrap(t *testing.T) {
	inner := errors.New("boom")
	qe := &QueryError{Stage: "execute", Query: "SELECT 1", Err: inner}
	if !errors.Is(qe, inner) {
		t.Fatal("errors.Is does not reach the wrapped cause")
	}
}

func TestScanRunContextCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("large scan in -short mode")
	}
	eng := buildBigEngine(t, 2_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.NewScan("big").Where("x", "<", "500").RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunParallelContextCancel(t *testing.T) {
	eng := buildBigEngine(t, 3<<16)
	cfg := DefaultConfig()
	cfg.Cores = 4
	if err := eng.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.NewScan("big").Where("x", "<", "500").RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunParallelDegradesOnCompileFailure(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, want := buildTestEngine(t, 3<<16, 0.1, 0.5)
	cfg := DefaultConfig()
	cfg.Cores = 4
	if err := eng.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}

	// Fail the chain's compile: every chunk runs on the scalar kernel.
	faultinject.Arm(faultinject.SiteJITCompile, 1, faultinject.ModeError)
	res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatalf("degraded parallel scan failed: %v", err)
	}
	if !res.Degraded {
		t.Fatal("ScanResult.Degraded not set")
	}
	if res.Count != want {
		t.Fatalf("degraded parallel count = %d, want %d", res.Count, want)
	}
}

func TestExplainQuerySurvivesInjectedCompileFailure(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, _ := buildTestEngine(t, 1000, 0.1, 0.5)
	faultinject.Arm(faultinject.SiteJITCompile, 1, faultinject.ModeError)
	ex, err := eng.ExplainQuery("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatalf("explain failed instead of degrading: %v", err)
	}
	if !strings.Contains(ex.PhysicalPlan, "degraded") {
		t.Errorf("physical plan does not show the degraded scan:\n%s", ex.PhysicalPlan)
	}
}
