package fusedscan

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusedscan/internal/faultinject"
)

// soakQueries is how many queries the chaos soak issues. Override with
// FUSEDSCAN_SOAK_QUERIES for longer runs.
func soakQueries(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("FUSEDSCAN_SOAK_QUERIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("FUSEDSCAN_SOAK_QUERIES=%q: not a positive integer", s)
		}
		return n
	}
	return 240
}

// renderResult flattens a query result into a stable string so soak
// workers can compare byte-identical output against the baseline.
func renderResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d sum=%s agg=%v cols=%s\n", res.Count, res.Sum, res.Aggregate, strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		b.WriteString(strings.Join(row, "|"))
		b.WriteByte('\n')
	}
	return b.String()
}

// typedSoakError reports whether a soak-query failure is one of the
// contract's typed outcomes: admission shedding, a blown memory budget, a
// context deadline/cancellation, a structured query error, or an injected
// fault surfaced directly.
func typedSoakError(err error) bool {
	var qe *QueryError
	var fe *faultinject.Error
	var fp *faultinject.Panic
	return errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrMemoryBudget) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.As(err, &qe) ||
		errors.As(err, &fe) ||
		errors.As(err, &fp)
}

// TestSoakGovernedChaos is the PR's acceptance soak: hundreds of
// concurrent mixed queries against a governed engine while a chaos
// goroutine cycles fault injection across the admission, JIT, breaker and
// kernel sites. The invariants: zero panics escape, every failure is
// typed, every success is byte-identical to the ungoverned baseline, and
// no goroutines leak.
func TestSoakGovernedChaos(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	total := soakQueries(t)
	const workers = 12

	eng, _ := buildTestEngine(t, 30000, 0.3, 0.4)
	// The direct-scan leg runs on four cores.
	wideWant := addWideTable(t, eng, 4)
	mix := []string{
		"SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2",
		"SELECT COUNT(*) FROM tbl WHERE a = 5",
		"SELECT COUNT(*) FROM tbl WHERE a >= 100 AND b <= 120",
		"SELECT a, b FROM tbl WHERE a = 5 AND b = 2",
		"SELECT SUM(a) FROM tbl WHERE b = 2",
		"SELECT a FROM tbl WHERE a = 5 AND b = 2 ORDER BY a LIMIT 50",
		// The memory hog: materializes every row, ~30000 * ~96 B — far
		// past the soak's per-query budget, so it must always fail typed.
		"SELECT a, b FROM tbl WHERE a >= 0",
	}

	// Baselines on the ungoverned, fault-free engine.
	baseline := make(map[string]string, len(mix))
	for _, q := range mix {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		baseline[q] = renderResult(res)
	}

	g := DefaultGovernance()
	g.MaxConcurrent = 6
	g.MaxQueue = 8
	g.QueueWait = 25 * time.Millisecond
	g.MemBudgetBytes = 2 << 20
	g.DefaultQueryTimeout = 10 * time.Second
	g.Breaker = BreakerSettings{FailureThreshold: 3, Cooldown: 10 * time.Millisecond, MaxCooldown: 100 * time.Millisecond}
	eng.SetGovernance(g)

	goroutinesBefore := runtime.NumGoroutine()

	// Chaos: cycle deterministic faults across every governed site while
	// the workers hammer the engine.
	chaosDone := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		plan := []struct {
			site string
			n    int
			mode faultinject.Mode
		}{
			{faultinject.SiteJITCompile, 2, faultinject.ModeError},
			{faultinject.SiteGovernAdmit, 1, faultinject.ModeError},
			{faultinject.SiteJITBreaker, 1, faultinject.ModeError},
			{faultinject.SiteKernelRun, 1, faultinject.ModePanic},
			{faultinject.SiteJITCompile, 1, faultinject.ModePanic},
		}
		for i := 0; ; i++ {
			select {
			case <-chaosDone:
				return
			case <-time.After(2 * time.Millisecond):
			}
			p := plan[i%len(plan)]
			faultinject.Arm(p.site, p.n, p.mode)
		}
	}()

	var (
		successes  atomic.Int64
		failures   atomic.Int64
		mismatches atomic.Int64
		untyped    atomic.Int64
		firstBad   sync.Once
		badMsg     atomic.Value
	)
	reportBad := func(msg string) {
		firstBad.Do(func() { badMsg.Store(msg) })
	}

	var wg sync.WaitGroup
	perWorker := total / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := mix[(w+i)%len(mix)]
				// A slice of the load goes through the direct scan API
				// instead of SQL, exercising its degradation path too.
				if (w+i)%17 == 0 {
					res, err := eng.NewScan("wide").Where("a", "=", "5").RunContext(context.Background())
					switch {
					case err != nil && !typedSoakError(err):
						untyped.Add(1)
						reportBad(fmt.Sprintf("parallel scan: untyped error %v (%T)", err, err))
					case err == nil && res.Count != wideWant:
						mismatches.Add(1)
						reportBad(fmt.Sprintf("parallel scan: count %d, want %d (degraded=%v)", res.Count, wideWant, res.Degraded))
					}
					continue
				}
				res, err := eng.Query(q)
				if err != nil {
					failures.Add(1)
					if !typedSoakError(err) {
						untyped.Add(1)
						reportBad(fmt.Sprintf("query %q: untyped error %v (%T)", q, err, err))
					}
					continue
				}
				successes.Add(1)
				// Success — governed, possibly degraded to the scalar path,
				// but always byte-identical to the ungoverned baseline.
				if got := renderResult(res); got != baseline[q] {
					mismatches.Add(1)
					reportBad(fmt.Sprintf("query %q: result diverged from baseline (degraded=%v)", q, res.Degraded))
				}
			}
		}(w)
	}
	wg.Wait()
	close(chaosDone)
	chaosWG.Wait()
	faultinject.Reset()

	if n := mismatches.Load(); n > 0 {
		t.Errorf("%d successful queries diverged from baseline: %v", n, badMsg.Load())
	}
	if n := untyped.Load(); n > 0 {
		t.Errorf("%d failures were not typed: %v", n, badMsg.Load())
	}
	if successes.Load() == 0 {
		t.Error("no query succeeded during the soak")
	}
	st := eng.Stats()
	if st.MemBudgetDenials == 0 {
		t.Error("memory-hog query never hit the budget — accounting not engaged")
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("governor not drained after soak: running=%d queued=%d", st.Running, st.Queued)
	}
	t.Logf("soak: %d ok, %d typed failures; stats %+v", successes.Load(), failures.Load(), st)

	// Goroutine-leak check: everything the soak spawned must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= goroutinesBefore+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before soak, %d after\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
