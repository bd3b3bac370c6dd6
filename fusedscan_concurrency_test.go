package fusedscan

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// addWideTable registers "wide", one int32 column a = row % 10 over two
// full 64 Ki-row chunks and a ragged third, so that a scan of it runs in
// parallel, and sets the engine's config to DefaultConfig on the given
// cores. It returns how many rows have a = 5.
func addWideTable(t *testing.T, eng *Engine, cores int) int {
	t.Helper()
	wide := make([]int32, 2<<16+100)
	want := 0
	for i := range wide {
		wide[i] = int32(i % 10)
		if wide[i] == 5 {
			want++
		}
	}
	if err := eng.CreateTable("wide").Int32("a", wide).Finish(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cores = cores
	if err := eng.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEngineConcurrentQueriesAndDDL exercises the engine's concurrency
// contract under the race detector: many goroutines issue queries, scans,
// parallel scans, table registrations and config changes against one
// Engine at once. Every query must return the exact count regardless of
// interleaving.
func TestEngineConcurrentQueriesAndDDL(t *testing.T) {
	const (
		rows       = 20000
		goroutines = 10
		iters      = 25
	)
	eng, want := buildTestEngine(t, rows, 0.1, 0.5)
	// The fluent scans run on four cores; the config churn below keeps
	// Cores.
	wideWant := addWideTable(t, eng, 4)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch g % 5 {
				case 0: // SQL queries on the fused path
					res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
					if err != nil {
						errs <- err
						return
					}
					if res.Count != int64(want) {
						errs <- fmt.Errorf("goroutine %d iter %d: count = %d, want %d", g, i, res.Count, want)
						return
					}
				case 1: // cancellable queries (chunked execution path)
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					res, err := eng.QueryContext(ctx, "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
					cancel()
					if err != nil {
						errs <- err
						return
					}
					if res.Count != int64(want) {
						errs <- fmt.Errorf("goroutine %d iter %d: ctx count = %d, want %d", g, i, res.Count, want)
						return
					}
				case 2: // fluent scans, parallel execution
					res, err := eng.NewScan("wide").Where("a", "=", "5").Run()
					if err != nil {
						errs <- err
						return
					}
					if res.Count != wideWant {
						errs <- fmt.Errorf("goroutine %d iter %d: parallel count = %d, want %d", g, i, res.Count, wideWant)
						return
					}
				case 3: // DDL: register fresh tables while queries run
					name := fmt.Sprintf("ddl_%d_%d", g, i)
					vals := make([]int32, 512)
					for j := range vals {
						vals[j] = int32(j)
					}
					tb := eng.CreateTable(name)
					tb.Int32("v", vals)
					if err := tb.Finish(); err != nil {
						errs <- err
						return
					}
					if _, err := eng.Table(name); err != nil {
						errs <- err
						return
					}
					_ = eng.TableNames()
				case 4: // config churn between queries
					cfg := eng.Config()
					if i%2 == 0 {
						cfg.RegisterWidth = 256
					} else {
						cfg.RegisterWidth = 512
					}
					if err := eng.SetConfig(cfg); err != nil {
						errs <- err
						return
					}
					res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5")
					if err != nil {
						errs <- err
						return
					}
					if res.Count < int64(want) {
						errs <- fmt.Errorf("goroutine %d iter %d: a=5 count = %d, want >= %d", g, i, res.Count, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineConcurrentQueriesOnDistinctTables runs queries against
// different tables concurrently — the common multi-tenant shape — and
// checks isolation of results.
func TestEngineConcurrentQueriesOnDistinctTables(t *testing.T) {
	const goroutines = 8
	eng := NewEngine()
	for g := 0; g < goroutines; g++ {
		vals := make([]int32, 4096)
		for j := range vals {
			vals[j] = int32(j % (g + 2))
		}
		tb := eng.CreateTable(fmt.Sprintf("t%d", g))
		tb.Int32("v", vals)
		if err := tb.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := int64(len(make([]struct{}, 4096)) / (g + 2))
			if 4096%(g+2) != 0 {
				want++ // v==0 occurs ceil(4096/(g+2)) times
			}
			for i := 0; i < 20; i++ {
				res, err := eng.Query(fmt.Sprintf("SELECT COUNT(*) FROM t%d WHERE v = 0", g))
				if err != nil {
					t.Error(err)
					return
				}
				if res.Count != want {
					t.Errorf("t%d: count = %d, want %d", g, res.Count, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
