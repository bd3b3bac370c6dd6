// Command fusedscan-server serves the engine over HTTP/JSON: ad-hoc
// queries, sessions, prepared statements backed by the shared plan cache,
// chunked ndjson streaming for large result sets, and the engine's
// governance surfaced as structured errors (429 + Retry-After on overload,
// 422 on a blown memory budget, 504 on deadline).
//
//	fusedscan-server -addr :8080 -rows 2000000 -max-concurrent 8
//	curl -s localhost:8080/query -d '{"sql":"SELECT COUNT(*) FROM demo WHERE a = 5 AND b = 5"}'
//	curl -s localhost:8080/varz
//
// -selfcheck starts the server on an ephemeral port, runs the scripted
// smoke client against it (ad-hoc queries, prepared hit/miss, overload
// shedding, a streamed 1M-row result digest-compared with the engine's own
// stream, plan-cache hit rate) and exits non-zero on any failure, or when
// it is not done within 3 minutes; `make serve-check` wires this into
// `make check`.
// -smoke URL runs the same client against an already-running server.
//
// -data DIR makes the engine durable: DDL (table create/drop, config
// changes) is write-ahead logged and snapshotted under DIR, recovered on
// the next start, and re-verified by a throttled background scrubber. A
// corrupt snapshot quarantines its table (503 "quarantined") without
// taking the process down.
//
// -crashcheck runs the crash-recovery harness: it spawns fault-injected
// child servers (-fault site:n:crash makes the n-th hit of a durability
// fault site exit like SIGKILL), drives DDL over HTTP until the child
// dies mid-operation, restarts on the same directory and asserts every
// acknowledged table recovers with identical contents; `make crash-check`
// wires this into `make check`.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fusedscan"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/server"
)

func buildDemo(eng *fusedscan.Engine, rows int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	a := make([]int32, rows)
	b := make([]int32, rows)
	c := make([]int32, rows)
	d := make([]int32, rows)
	for i := 0; i < rows; i++ {
		a[i] = pick(rng, 0.5)
		b[i] = pick(rng, 0.1)
		c[i] = pick(rng, 0.01)
		d[i] = rng.Int31n(1000)
	}
	tb := eng.CreateTable("demo")
	tb.Int32("a", a)
	tb.Int32("b", b)
	tb.Int32("c", c)
	tb.Int32("d", d)
	if err := tb.Finish(); err != nil {
		return err
	}
	// A small dimension table so remote join queries work out of the
	// box: dim.d shares demo.d's 0..999 domain (duplicate keys fan out).
	drng := rand.New(rand.NewSource(seed + 1))
	const dimRows = 4096
	dk := make([]int32, dimRows)
	dv := make([]int32, dimRows)
	dw := make([]int32, dimRows)
	for i := 0; i < dimRows; i++ {
		dk[i] = drng.Int31n(1000)
		dv[i] = drng.Int31n(1000)
		dw[i] = drng.Int31n(100)
	}
	db := eng.CreateTable("dim")
	db.Int32("d", dk)
	db.Int32("v", dv)
	db.Int32("w", dw)
	return db.Finish()
}

func pick(rng *rand.Rand, sel float64) int32 {
	if rng.Float64() < sel {
		return 5
	}
	return rng.Int31n(900) + 100
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	rows := flag.Int("rows", 1_000_000, "rows in the generated demo table")
	seed := flag.Int64("seed", 1, "data seed")
	noDemo := flag.Bool("nodemo", false, "skip generating the demo table")
	csvSpec := flag.String("csv", "", "import a CSV file as name=path (header fields are name:type)")
	loadPath := flag.String("load", "", "load a binary table file (.fscn)")
	config := flag.String("config", "default", "engine execution config: default (simulated counters) or native (SWAR turbo)")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission limit: queries running at once (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "admission queue depth beyond the concurrency limit")
	memBudget := flag.Int64("mem-budget", 0, "per-query memory budget in bytes (0 = unlimited)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query wall-clock limit (0 = none)")
	sessionTTL := flag.Duration("session-ttl", 15*time.Minute, "evict sessions idle longer than this")
	maxSessions := flag.Int("max-sessions", 1024, "concurrent session limit")
	maxConns := flag.Int("max-conns", 0, "concurrent connection limit (0 = unlimited)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 0, "slowloris defense: close connections whose headers take longer than this (0 = 10s default, negative disables)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close keep-alive connections idle longer than this (0 = 2m default, negative disables)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-write deadline on ndjson streaming; a stalled reader is disconnected within this bound (0 = 30s default, negative disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget before in-flight queries are cancelled")
	selfcheck := flag.Bool("selfcheck", false, "start on an ephemeral port, run the scripted smoke client, exit")
	smokeURL := flag.String("smoke", "", "run the smoke client against a running server at this base URL and exit")
	dataDir := flag.String("data", "", "durable data directory: recover on start, WAL + snapshot every DDL")
	scrubEvery := flag.Duration("scrub-interval", time.Minute, "background snapshot-scrub cadence (negative disables; needs -data)")
	scrubRate := flag.Int64("scrub-rate", 64<<20, "scrub read throttle in bytes/sec (negative = unthrottled)")
	faultSpec := flag.String("fault", "", "arm a fault-injection site as site:n[:mode], mode error|panic|crash (testing)")
	portFile := flag.String("portfile", "", "write the bound listen address to this file once serving")
	crashCheck := flag.Bool("crashcheck", false, "run the crash-recovery harness (spawns fault-injected children) and exit")
	crashCycles := flag.Int("crash-cycles", 3, "crash/recover cycles per fault site in -crashcheck")
	flag.Parse()

	if *selfcheck {
		// A streaming bug that leaves a reader waiting for its trailer
		// fails the check instead of leaving it running.
		time.AfterFunc(selfcheckDeadline, func() {
			fatal(fmt.Errorf("selfcheck: not done after %v", selfcheckDeadline))
		})
	}
	if *smokeURL != "" {
		if err := smoke(strings.TrimRight(*smokeURL, "/"), smokeOpts{}); err != nil {
			fatal(err)
		}
		fmt.Println("smoke: ok")
		return
	}
	if *crashCheck {
		if err := runCrashCheck(*crashCycles, *seed); err != nil {
			fatal(err)
		}
		fmt.Println("crashcheck: ok")
		return
	}
	if *faultSpec != "" {
		if err := faultinject.ArmSpec(*faultSpec); err != nil {
			fatal(err)
		}
	}

	var eng *fusedscan.Engine
	if *dataDir != "" {
		var err error
		eng, err = fusedscan.OpenWithOptions(*dataDir, fusedscan.OpenOptions{
			ScrubInterval:    *scrubEvery,
			ScrubBytesPerSec: *scrubRate,
		})
		if err != nil {
			fatal(err)
		}
		if q := eng.QuarantinedTables(); len(q) > 0 {
			for name, qe := range q {
				fmt.Fprintf(os.Stderr, "fusedscan-server: recovery quarantined table %q: %v\n", name, qe.Err)
			}
		}
	} else {
		eng = fusedscan.NewEngine()
	}
	defer eng.Close()
	if *maxConcurrent > 0 || *memBudget > 0 {
		g := fusedscan.DefaultGovernance()
		g.MaxConcurrent = *maxConcurrent
		g.MaxQueue = *maxQueue
		g.MemBudgetBytes = *memBudget
		eng.SetGovernance(g)
	}
	switch *config {
	case "default", "":
	case "native":
		if err := eng.SetConfig(fusedscan.NativeConfig()); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -config %q (want default or native)", *config))
	}
	if !*noDemo && !hasTable(eng, "demo") {
		// The demo table may already be recovered from the data directory.
		if err := buildDemo(eng, *rows, *seed); err != nil {
			fatal(err)
		}
	}
	if *csvSpec != "" {
		name, path, ok := strings.Cut(*csvSpec, "=")
		if !ok {
			fatal(fmt.Errorf("-csv wants name=path, got %q", *csvSpec))
		}
		if err := eng.LoadCSVFile(path, name); err != nil {
			fatal(err)
		}
	}
	if *loadPath != "" {
		name, err := eng.LoadTable(*loadPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded table %q from %s\n", name, *loadPath)
	}

	srv := server.New(eng, server.Options{
		DefaultTimeout:     *timeout,
		IdleSessionTTL:     *sessionTTL,
		MaxSessions:        *maxSessions,
		MaxConns:           *maxConns,
		DrainTimeout:       *drain,
		ReadHeaderTimeout:  *readHeaderTimeout,
		IdleTimeout:        *idleTimeout,
		StreamWriteTimeout: *writeTimeout,
	})

	if *selfcheck {
		if err := runSelfcheck(eng, srv); err != nil {
			fatal(err)
		}
		fmt.Println("selfcheck: ok")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("fusedscan-server: listening on %s (tables %v)\n", ln.Addr(), eng.TableNames())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case <-sig:
		fmt.Println("fusedscan-server: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := eng.Close(); err != nil {
			fatal(fmt.Errorf("closing data directory: %w", err))
		}
	}
}

// hasTable reports whether name is registered (quarantined counts: the
// demo generator must not fight a recovered-but-corrupt table).
func hasTable(eng *fusedscan.Engine, name string) bool {
	if _, err := eng.Table(name); err == nil {
		return true
	}
	_, quarantined := eng.QuarantinedTables()[name]
	return quarantined
}

// runSelfcheck serves on an ephemeral loopback port and drives the full
// smoke script against it, including the overload-shedding leg (the
// governance limit is tightened for that step and restored afterwards).
// selfcheckDeadline bounds the whole -selfcheck run, demo-table
// generation included.
const selfcheckDeadline = 3 * time.Minute

func runSelfcheck(eng *fusedscan.Engine, srv *server.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	smokeErr := smoke(url, smokeOpts{eng: eng, want429: true})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != nil {
		return err
	}
	return smokeErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fusedscan-server:", err)
	os.Exit(1)
}
