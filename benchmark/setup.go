package main

// Set-up: everything between "process has a seed" and "ready for the first
// query". It is what setup_s times, and every call into a layer's public
// set-up function (ClusterBy, Pack, Finish, CreateIndex) is timed from here
// for the column/index/storage per-layer metrics.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fusedscan"
	"fusedscan/internal/client"
	"fusedscan/internal/server"
)

// setupTimes is the benchmark's own timing of the set-up calls, in seconds,
// with the row counts they covered.
type setupTimes struct {
	pack, index, finish float64
	packCells           int   // rows x packed columns
	indexRows           int   // rows indexed
	userBytes           int64 // rows x columns x 4 across all tables
}

// env is one workload, set up and ready for queries.
type env struct {
	workload string
	ds       *dataset
	eng      *fusedscan.Engine
	prepared []*fusedscan.Prepared // by shape index; nil where no prepared op uses the shape
	times    setupTimes

	// serve_mixed only.
	dir      string
	srv      *server.Server
	serveErr chan error
	base     string
	clients  []*client.Client
	sessions []string
	stmtIDs  [][]string // [client][shape] prepared statement id
	// WAL counters when set-up finished: what the passes add is their DDL.
	walAppends0, walFsyncs0 int64
}

// preparedShapes marks the shapes some op executes as a prepared statement.
func (d *dataset) preparedShapes() []bool {
	used := make([]bool, len(d.shapes))
	for _, ops := range d.ops {
		for _, o := range ops {
			if o.mode == modePrepared {
				used[d.stmts[o.stmt].shape] = true
			}
		}
	}
	return used
}

func nullRows(null []bool) []int {
	var rows []int
	for i, n := range null {
		if n {
			rows = append(rows, i)
		}
	}
	return rows
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// loadTables builds every generated table through the public TableBuilder.
func (e *env) loadTables() error {
	for _, t := range e.ds.tables {
		tb := e.eng.CreateTable(t.name)
		for _, c := range t.cols {
			tb.Int32(c.name, c.vals)
			if c.null != nil {
				tb.NullsAt(c.name, nullRows(c.null))
			}
		}
		e.times.userBytes += int64(t.rows()) * int64(len(t.cols)) * 4
		if t.cluster != "" {
			tb.ClusterBy(t.cluster)
		}
		if len(t.pack) > 0 {
			start := time.Now()
			tb.Pack(t.pack...)
			e.times.pack += since(start)
			e.times.packCells += t.rows() * len(t.pack)
		}
		start := time.Now()
		if err := tb.Finish(); err != nil {
			return fmt.Errorf("create table %s: %w", t.name, err)
		}
		e.times.finish += since(start)
		for _, col := range t.index {
			start := time.Now()
			if err := e.eng.CreateIndex(t.name, col); err != nil {
				return fmt.Errorf("create index %s(%s): %w", t.name, col, err)
			}
			e.times.index += since(start)
			e.times.indexRows += t.rows()
		}
	}
	return nil
}

// setUp generates the workload from the seed and brings the engine (and,
// for serve_mixed, the server and its clients) to ready. dataDir is where a
// durable engine may write.
func setUp(workload string, seed uint64, scale float64, dataDir string) (*env, error) {
	ds, err := generate(workload, seed, scale)
	if err != nil {
		return nil, err
	}
	e := &env{workload: workload, ds: ds}
	if workload == "serve_mixed" {
		if err := e.setUpServe(dataDir); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}
	e.eng = fusedscan.NewEngine()
	if err := e.eng.SetConfig(fusedscan.NativeConfig()); err != nil {
		return nil, err
	}
	if err := e.loadTables(); err != nil {
		return nil, err
	}
	e.prepared = make([]*fusedscan.Prepared, len(ds.shapes))
	for i, used := range ds.preparedShapes() {
		if !used {
			continue
		}
		if e.prepared[i], err = e.eng.Prepare(ds.shapes[i]); err != nil {
			return nil, fmt.Errorf("prepare %q: %w", ds.shapes[i], err)
		}
	}
	return e, nil
}

// serveGovernance is serve_mixed's admission setting: as many slots as
// cores, a short queue behind them.
func serveGovernance() fusedscan.Governance {
	g := fusedscan.DefaultGovernance()
	g.MaxConcurrent = 2
	g.MaxQueue = 8
	return g
}

func (e *env) setUpServe(dataDir string) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(dataDir, "data-")
	if err != nil {
		return err
	}
	e.dir = dir
	if e.eng, err = fusedscan.Open(dir); err != nil {
		return err
	}
	if err := e.loadTables(); err != nil {
		return err
	}
	st := e.eng.Stats()
	e.walAppends0, e.walFsyncs0 = st.WALAppends, st.WALFsyncs
	return e.startServer()
}

// startServer puts the HTTP service on a loopback port over e.eng and gives
// each client a native-path session with its prepared statements.
func (e *env) startServer() error {
	e.eng.SetGovernance(serveGovernance())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(e.eng, server.Options{})
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.srv.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()

	ctx := context.Background()
	used := e.ds.preparedShapes()
	e.clients, e.sessions, e.stmtIDs = nil, nil, nil
	for c := 0; c < serveClients; c++ {
		// One keep-alive connection per client: the workload's "2 connections".
		cl := client.New(client.Options{BaseURL: e.base,
			HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}})
		sess, err := cl.Session(ctx, server.SessionRequest{Config: "native"})
		if err != nil {
			return fmt.Errorf("session: %w", err)
		}
		ids := make([]string, len(e.ds.shapes))
		for i, u := range used {
			if !u {
				continue
			}
			p, err := cl.Prepare(ctx, server.PrepareRequest{SQL: e.ds.shapes[i], Session: sess.Session})
			if err != nil {
				return fmt.Errorf("prepare %q: %w", e.ds.shapes[i], err)
			}
			ids[i] = p.Stmt
		}
		e.clients = append(e.clients, cl)
		e.sessions = append(e.sessions, sess.Session)
		e.stmtIDs = append(e.stmtIDs, ids)
	}
	return nil
}

// stopServer shuts the listener down and waits for Serve to return.
func (e *env) stopServer() error {
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	<-e.serveErr
	e.srv = nil
	return err
}

// close releases everything set-up acquired: server, engine, data directory.
func (e *env) close() error {
	err := e.stopServer()
	if e.eng != nil {
		if cerr := e.eng.Close(); err == nil {
			err = cerr
		}
		e.eng = nil
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// dirBytes totals the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
