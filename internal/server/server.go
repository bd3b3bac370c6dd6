package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fusedscan"
	"fusedscan/internal/faultinject"
)

// Options configures the query service.
type Options struct {
	// DefaultTimeout caps queries that carry no explicit timeout (request
	// or session level). 0 means no service-level cap (the engine's
	// governance DefaultQueryTimeout still applies).
	DefaultTimeout time.Duration
	// IdleSessionTTL evicts sessions idle longer than this (default 15m).
	IdleSessionTTL time.Duration
	// MaxSessions bounds concurrent sessions (default 1024).
	MaxSessions int
	// MaxConns bounds concurrently accepted connections; excess callers
	// block in the kernel accept queue. 0 means unlimited.
	MaxConns int
	// DrainTimeout bounds graceful shutdown: after it expires, in-flight
	// queries are cancelled through their contexts and connections are
	// force-closed. 0 waits for a clean drain indefinitely (bounded only by
	// the caller's Shutdown context).
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// ReadHeaderTimeout bounds how long a connection may take to deliver
	// its request headers (slowloris defense: without it, a client that
	// connects and never sends headers pins a connection-limit slot
	// forever). 0 defaults to 10s; negative disables.
	ReadHeaderTimeout time.Duration
	// IdleTimeout closes keep-alive connections idle longer than this.
	// 0 defaults to 2m; negative disables.
	IdleTimeout time.Duration
	// StreamWriteTimeout is the per-write deadline on ndjson streaming: a
	// client that stops reading mid-stream is disconnected within this
	// bound, releasing the query's admission slot and memory budget instead
	// of pinning them until the reader returns. 0 defaults to 30s; negative
	// disables.
	StreamWriteTimeout time.Duration
}

// Effective-timeout resolution: 0 picks the default, negative disables.
func resolveTimeout(configured, def time.Duration) time.Duration {
	switch {
	case configured < 0:
		return 0
	case configured == 0:
		return def
	}
	return configured
}

func (o Options) readHeaderTimeout() time.Duration {
	return resolveTimeout(o.ReadHeaderTimeout, 10*time.Second)
}
func (o Options) idleTimeout() time.Duration { return resolveTimeout(o.IdleTimeout, 2*time.Minute) }
func (o Options) streamWriteTimeout() time.Duration {
	return resolveTimeout(o.StreamWriteTimeout, 30*time.Second)
}

// Server is the HTTP query service over one Engine. It implements
// http.Handler, so it composes with httptest and any outer mux.
type Server struct {
	eng      *fusedscan.Engine
	opts     Options
	sessions *sessionManager
	mux      *http.ServeMux
	start    time.Time

	baseCtx    context.Context
	cancelBase context.CancelFunc

	requests        atomic.Int64
	errorsN         atomic.Int64
	overloaded      atomic.Int64
	deadlineRejects atomic.Int64
	slowClientDrops atomic.Int64
	streamedRows    atomic.Int64
	active          atomic.Int64

	mu      sync.Mutex
	httpSrv *http.Server
}

// New builds a query service over eng.
func New(eng *fusedscan.Engine, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		eng:        eng,
		opts:       opts,
		sessions:   newSessionManager(opts.IdleSessionTTL, opts.MaxSessions),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		baseCtx:    ctx,
		cancelBase: cancel,
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /execute", s.handleExecute)
	s.mux.HandleFunc("POST /session", s.handleSessionCreate)
	s.mux.HandleFunc("GET /session/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /session/{id}", s.handleSessionDrop)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	s.mux.HandleFunc("GET /tables", s.handleTables)
	s.mux.HandleFunc("POST /tables", s.handleTableCreate)
	s.mux.HandleFunc("DELETE /tables/{name}", s.handleTableDrop)
	s.mux.HandleFunc("POST /tables/{name}/scrub", s.handleTableScrub)
	return s
}

// ServeHTTP dispatches one request with counting and panic containment.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)
	defer func() {
		if rec := recover(); rec != nil {
			// The engine isolates its own panics; this guards the HTTP
			// decode/encode layer. Headers may already be out on a stream —
			// best effort only.
			s.writeError(w, http.StatusInternalServerError, ErrorResponse{
				Error: fmt.Sprintf("internal error: %v", rec), Code: "internal",
			})
		}
	}()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// Serve accepts connections on ln until Shutdown, honouring MaxConns.
func (s *Server) Serve(ln net.Listener) error {
	if s.opts.MaxConns > 0 {
		ln = &limitListener{Listener: ln, sem: make(chan struct{}, s.opts.MaxConns)}
	}
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: s.opts.readHeaderTimeout(),
		IdleTimeout:       s.opts.idleTimeout(),
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
	}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains gracefully: the listener closes, idle connections close,
// and in-flight queries get DrainTimeout to finish before being cancelled
// through their request contexts. The session janitor stops either way.
func (s *Server) Shutdown(ctx context.Context) error {
	defer s.sessions.close()
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		s.cancelBase()
		return nil
	}
	dctx := ctx
	if s.opts.DrainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, s.opts.DrainTimeout)
		defer cancel()
	}
	err := srv.Shutdown(dctx)
	if err != nil {
		// Drain budget exhausted: cancel every in-flight query (their
		// contexts derive from baseCtx) and force-close connections.
		s.cancelBase()
		cerr := srv.Close()
		if cerr != nil {
			return fmt.Errorf("forced close after drain timeout (%v): %w", err, cerr)
		}
		return err
	}
	s.cancelBase()
	return nil
}

// limitListener bounds concurrently open connections with a semaphore
// (x/net/netutil's idea, restated locally — no external deps).
type limitListener struct {
	net.Listener
	sem chan struct{}
}

func (l *limitListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: c, sem: l.sem}, nil
}

type limitConn struct {
	net.Conn
	sem  chan struct{}
	once sync.Once
}

func (c *limitConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { <-c.sem })
	return err
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Quarantined tables do not fail health: the process serves every
	// healthy table and reports the casualties here and in /varz.
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"tables":         len(s.eng.TableNames()),
		"quarantined":    len(s.eng.QuarantinedTables()),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
	})
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	resp := TablesResponse{Tables: s.eng.TableNames()}
	if q := s.eng.QuarantinedTables(); len(q) > 0 {
		resp.Quarantined = make(map[string]string, len(q))
		for name, qe := range q {
			resp.Quarantined[name] = qe.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTableCreate registers a table from JSON columns. On a durable
// engine the 200 is an acknowledgement in the WAL sense: the snapshot and
// log record are fsynced before the response leaves.
func (s *Server) handleTableCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateTableRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Name == "" || len(req.Columns) == 0 {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "table needs a name and at least one column", Code: "bad_request"})
		return
	}
	tb := s.eng.CreateTable(req.Name)
	for _, c := range req.Columns {
		typ := c.Type
		if typ == "" {
			typ = "int32"
		}
		tb.Column(c.Name, typ, c.Values)
		if len(c.NullRows) > 0 {
			tb.NullsAt(c.Name, c.NullRows)
		}
	}
	if err := tb.Finish(); err != nil {
		if strings.Contains(err.Error(), "already exists") {
			s.writeError(w, http.StatusConflict, ErrorResponse{Error: err.Error(), Code: "conflict"})
			return
		}
		s.replyError(w, err)
		return
	}
	rows := 0
	if t, err := s.eng.Table(req.Name); err == nil {
		rows = t.Rows()
	}
	writeJSON(w, http.StatusOK, TableOpResponse{OK: true, Table: req.Name, Rows: rows, Durable: s.eng.DataDir() != ""})
}

func (s *Server) handleTableDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ok, err := s.eng.Drop(name)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Code: "internal"})
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown table %q", name), Code: "unknown_table"})
		return
	}
	writeJSON(w, http.StatusOK, TableOpResponse{OK: true, Table: name, Durable: s.eng.DataDir() != ""})
}

// handleTableScrub re-verifies one table's snapshot checksums on demand.
// A verification failure answers with the quarantine taxonomy (503); a
// clean pass over a previously-quarantined table restores it.
func (s *Server) handleTableScrub(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	blocks, err := s.eng.ScrubTable(name)
	switch {
	case errors.Is(err, fusedscan.ErrNotDurable):
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "not_durable"})
		return
	case err != nil && strings.Contains(err.Error(), "unknown table"):
		s.writeError(w, http.StatusNotFound, ErrorResponse{Error: err.Error(), Code: "unknown_table"})
		return
	case err != nil:
		s.replyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ScrubResponse{OK: true, Table: name, Blocks: blocks})
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	n, created, evicted := s.sessions.stats()
	writeJSON(w, http.StatusOK, VarzResponse{
		Engine: s.eng.Stats(),
		Server: ServerStats{
			Requests:        s.requests.Load(),
			Errors:          s.errorsN.Load(),
			Overloaded:      s.overloaded.Load(),
			DeadlineRejects: s.deadlineRejects.Load(),
			SlowClientDrops: s.slowClientDrops.Load(),
			StreamedRows:    s.streamedRows.Load(),
			ActiveRequests:  s.active.Load(),
			Sessions:        n,
			SessionsCreated: created,
			SessionsEvicted: evicted,
			UptimeSeconds:   int64(time.Since(s.start).Seconds()),
		},
	})
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	sess, err := s.sessions.create(req.Config, time.Duration(req.TimeoutMillis)*time.Millisecond)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_request"})
		return
	}
	writeJSON(w, http.StatusOK, sess.snapshot(time.Now()))
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, ErrorResponse{Error: "unknown session", Code: "unknown_session"})
		return
	}
	writeJSON(w, http.StatusOK, sess.snapshot(time.Now()))
}

func (s *Server) handleSessionDrop(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.drop(r.PathValue("id")) {
		s.writeError(w, http.StatusNotFound, ErrorResponse{Error: "unknown session", Code: "unknown_session"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if !s.decode(w, r, &req) {
		return
	}
	var sess *Session
	if req.Session != "" {
		var ok bool
		if sess, ok = s.sessions.get(req.Session); !ok {
			s.writeError(w, http.StatusNotFound, ErrorResponse{Error: "unknown session", Code: "unknown_session"})
			return
		}
	} else {
		var err error
		sess, err = s.sessions.create(req.Config, time.Duration(req.TimeoutMillis)*time.Millisecond)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_request"})
			return
		}
	}
	prep, err := s.eng.Prepare(req.SQL)
	if err != nil {
		s.replyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PrepareResponse{
		Session:   sess.ID,
		Stmt:      sess.addStmt(prep),
		NumParams: prep.NumParams(),
		Shape:     prep.Shape(),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	var sess *Session
	if req.Session != "" {
		var ok bool
		if sess, ok = s.sessions.get(req.Session); !ok {
			s.writeError(w, http.StatusNotFound, ErrorResponse{Error: "unknown session", Code: "unknown_session"})
			return
		}
	}
	cfg, timeout, errResp := s.resolve(req.Config, req.TimeoutMillis, r, sess)
	if errResp != nil {
		s.writeError(w, http.StatusBadRequest, *errResp)
		return
	}
	qo := fusedscan.QueryOptions{
		Config: cfg, Args: req.Args,
		Session: fairnessKey(r, sess),
	}
	s.runQuery(w, r, sess, timeout, req.Stream, func(ctx context.Context, stream func([]string, [][]string) error) (*fusedscan.Result, error) {
		qo.Stream = stream
		return s.eng.QueryWith(ctx, req.SQL, qo)
	})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecuteRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Session == "" {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "execute requires a session", Code: "bad_request"})
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		s.writeError(w, http.StatusNotFound, ErrorResponse{Error: "unknown session", Code: "unknown_session"})
		return
	}
	prep, ok := sess.stmt(req.Stmt)
	if !ok {
		s.writeError(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown statement %q", req.Stmt), Code: "unknown_stmt"})
		return
	}
	cfg, timeout, _ := s.resolve("", req.TimeoutMillis, r, sess)
	s.runQuery(w, r, sess, timeout, req.Stream, func(ctx context.Context, stream func([]string, [][]string) error) (*fusedscan.Result, error) {
		// Prepared executions ride the admission cheap lane (set inside
		// ExecuteWith): their plan is cached, so they are the short work the
		// lane keeps responsive under a queue full of heavy scans.
		return prep.ExecuteWith(ctx, fusedscan.QueryOptions{Config: cfg, Args: req.Args, Stream: stream, Session: fairnessKey(r, sess)})
	})
}

// fairnessKey is the admission-control session key: the server session id
// when the request names one, else the client host — so per-session
// fairness degrades gracefully to per-client fairness for sessionless
// traffic.
func fairnessKey(r *http.Request, sess *Session) string {
	if sess != nil {
		return sess.ID
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// DeadlineHeader carries a client's end-to-end deadline budget in
// milliseconds. It fills the same slot as the request's timeout_ms field
// (the body field wins when both are present) and exists so proxies and
// the remote client can forward a shrinking budget without rewriting
// bodies: queue wait on the server counts against it, and a budget that
// cannot cover the predicted wait plus service time is rejected early
// with code "deadline_exhausted".
const DeadlineHeader = "X-Fusedscan-Deadline-Ms"

// resolve merges the request-level config/timeout with the deadline
// header, the session and the service defaults. Precedence: request body,
// then the X-Fusedscan-Deadline-Ms header, then session, then server.
func (s *Server) resolve(cfgName string, timeoutMillis int64, r *http.Request, sess *Session) (*fusedscan.Config, time.Duration, *ErrorResponse) {
	var cfg *fusedscan.Config
	var timeout time.Duration
	if sess != nil {
		cfg, timeout = sess.configuration()
	}
	if cfgName != "" {
		c, err := parseConfigName(cfgName)
		if err != nil {
			return nil, 0, &ErrorResponse{Error: err.Error(), Code: "bad_request"}
		}
		cfg = c
	}
	if h := r.Header.Get(DeadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if timeoutMillis > 0 {
		timeout = time.Duration(timeoutMillis) * time.Millisecond
	}
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	return cfg, timeout, nil
}

// runQuery executes one statement through the shared response machinery:
// timeout wiring, plain-JSON vs ndjson streaming, error taxonomy, session
// accounting.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, sess *Session, timeout time.Duration, stream bool, run func(ctx context.Context, sink func([]string, [][]string) error) (*fusedscan.Result, error)) {
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	started := time.Now()
	note := func(res *fusedscan.Result, err error) {
		if sess == nil {
			return
		}
		var rows int64
		if res != nil {
			rows = res.Count
		}
		sess.note(rows, err != nil)
	}

	if !stream {
		res, err := run(ctx, nil)
		note(res, err)
		if err != nil {
			s.replyError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, toResponse(res, time.Since(started)))
		return
	}

	// ndjson streaming: header once (lazily, when the first batch arrives),
	// then row batches, then a trailer carrying the count — or the error,
	// since the 200 status is already on the wire by then.
	//
	// Every wire write runs under a per-write deadline (slow-client
	// defense): a client that stops reading stalls the TCP window, the
	// write times out within StreamWriteTimeout, the sink error aborts the
	// query through the engine, and its admission slot and memory budget
	// come back — instead of being pinned for as long as the reader feels
	// like sleeping. Batches are flushed as they are written, so per-
	// connection buffering stays bounded at one batch. Header and trailer
	// go through json.Encoder; batch lines are built by hand into one
	// buffer reused for the whole stream (AppendBatchLine).
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	swt := s.opts.streamWriteTimeout()
	enc := json.NewEncoder(w)
	headerOut := false
	var sinkErr error
	var line []byte
	// write sends one line under the write deadline and flushes it: a
	// hand-built line as given, any other value through the encoder.
	write := func(v any) error {
		if swt > 0 {
			dl := time.Now().Add(swt)
			if faultinject.Hit(faultinject.SiteServerWriteStall) != nil {
				// Injected stalled reader: the deadline is already spent, so
				// the flush below fails exactly like a client that stopped
				// reading for the whole write budget.
				dl = time.Now()
			}
			// ErrNotSupported (a recording ResponseWriter in tests) just means
			// no deadline enforcement — stream without it.
			if derr := rc.SetWriteDeadline(dl); derr != nil && !errors.Is(derr, http.ErrNotSupported) {
				return derr
			}
		}
		var err error
		if b, ok := v.([]byte); ok {
			_, err = w.Write(b)
		} else {
			err = enc.Encode(v)
		}
		if err != nil {
			return err
		}
		if ferr := rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
			return ferr
		}
		return nil
	}
	sink := func(columns []string, rows [][]string) error {
		if !headerOut {
			if err := write(StreamHeader{Columns: columns}); err != nil {
				sinkErr = err
				return err
			}
			headerOut = true
		}
		line = AppendBatchLine(line[:0], rows)
		if err := write(line); err != nil {
			sinkErr = err
			return err
		}
		s.streamedRows.Add(int64(len(rows)))
		return nil
	}
	res, err := run(ctx, sink)
	note(res, err)
	if err != nil && sinkErr == nil && !headerOut {
		// Nothing on the wire yet: a clean structured error response.
		s.replyError(w, err)
		return
	}
	if sinkErr != nil && isTimeoutErr(sinkErr) {
		// The query was killed because ITS CLIENT stopped reading. The
		// connection is already poisoned (an expired write deadline fails
		// all later writes), so no trailer can be delivered — the counter
		// and the disconnect are the observable outcome.
		s.slowClientDrops.Add(1)
		s.errorsN.Add(1)
		return
	}
	if !headerOut {
		var cols []string
		if res != nil {
			cols = res.Columns
		}
		if eerr := write(StreamHeader{Columns: cols}); eerr != nil {
			return
		}
	}
	trailer := StreamTrailer{Done: err == nil, ElapsedMicros: time.Since(started).Microseconds()}
	if res != nil {
		trailer.Count = res.Count
	}
	if err != nil {
		s.errorsN.Add(1)
		trailer.Error = err.Error()
		// The 200 is on the wire, so the structured taxonomy rides the
		// trailer: the same stable code a non-streamed request would get as
		// its ErrorResponse.Code, plus the failing stage when known.
		_, resp := classify(err)
		trailer.Code = resp.Code
		var qe *fusedscan.QueryError
		if errors.As(err, &qe) {
			trailer.Stage = qe.Stage
		}
	}
	write(trailer)
}

// isTimeoutErr reports whether err is a write-deadline expiry (net.Error
// timeout or os.ErrDeadlineExceeded) — the slow-client signature.
func isTimeoutErr(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// toResponse renders an engine Result on the wire.
func toResponse(res *fusedscan.Result, elapsed time.Duration) QueryResponse {
	out := QueryResponse{
		Count:          res.Count,
		Columns:        res.Columns,
		Rows:           res.Rows,
		Sum:            res.Sum,
		Aggregate:      res.Aggregate,
		Fused:          res.Fused,
		Degraded:       res.Degraded,
		DegradedReason: res.DegradedReason,
		ElapsedMicros:  elapsed.Microseconds(),
	}
	if res.Report != nil {
		out.Report = &PerfSummary{
			RuntimeMs:         res.Report.RuntimeMs,
			Instructions:      res.Report.Instructions,
			BranchMispredicts: res.Report.BranchMispredicts,
			DRAMBytes:         res.Report.DRAMBytes,
			CompiledOperators: res.Report.CompiledOperators,
			OperatorCacheHits: res.Report.OperatorCacheHits,
		}
	}
	return out
}

// classify maps engine failures onto the HTTP error taxonomy (DESIGN.md
// §11): governance rejections and budget denials are typed, stage-tagged
// QueryErrors split client mistakes from internal faults, and everything
// else from the parse/plan layers is a client error.
func classify(err error) (int, ErrorResponse) {
	var que *fusedscan.QuarantineError
	if errors.As(err, &que) {
		// The table exists but its durable copy failed verification: the
		// request is well-formed, the service is healthy, this one resource
		// is out of service until repaired or replaced.
		return http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Code: "quarantined", Stage: "plan"}
	}
	var oe *fusedscan.OverloadedError
	if errors.As(err, &oe) {
		return http.StatusTooManyRequests, ErrorResponse{
			Error: err.Error(), Code: "overloaded",
			RetryAfterMillis: oe.RetryAfter.Milliseconds(),
		}
	}
	if errors.Is(err, fusedscan.ErrMemoryBudget) {
		return http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error(), Code: "memory_budget", Stage: "execute"}
	}
	// DeadlineExhausted before the generic DeadlineExceeded check: its
	// cause chain ends in context.DeadlineExceeded (so deadline-aware
	// callers keep working), but it deserves the sharper code — the budget
	// was rejected or burned in the admission queue, and the error carries
	// a retry hint a plain timeout does not.
	var de *fusedscan.DeadlineExhaustedError
	if errors.As(err, &de) {
		return http.StatusGatewayTimeout, ErrorResponse{
			Error: err.Error(), Code: "deadline_exhausted",
			RetryAfterMillis: de.RetryAfter.Milliseconds(),
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, ErrorResponse{Error: err.Error(), Code: "timeout", Stage: "execute"}
	}
	if errors.Is(err, context.Canceled) {
		return http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Code: "canceled"}
	}
	var qe *fusedscan.QueryError
	if errors.As(err, &qe) {
		if qe.Panicked || qe.Stage == "translate" || qe.Stage == "execute" {
			return http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Code: "internal", Stage: qe.Stage}
		}
		return http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "invalid_query", Stage: qe.Stage}
	}
	// Raw parse/plan errors (bad SQL, unknown table or column, argument
	// arity): the client's statement is at fault.
	resp := ErrorResponse{Error: err.Error(), Code: "invalid_query"}
	if strings.HasPrefix(err.Error(), "sql:") {
		resp.Stage = "parse"
	}
	return http.StatusBadRequest, resp
}

// replyError classifies err and writes the structured response (with a
// Retry-After header for overload shedding and exhausted deadline
// budgets — both carry a drain-rate-derived hint).
func (s *Server) replyError(w http.ResponseWriter, err error) {
	status, resp := classify(err)
	if resp.Code == "deadline_exhausted" {
		s.deadlineRejects.Add(1)
	}
	if resp.RetryAfterMillis > 0 {
		secs := (resp.RetryAfterMillis + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	if status == http.StatusTooManyRequests {
		s.overloaded.Add(1)
	}
	s.writeError(w, status, resp)
}

func (s *Server) writeError(w http.ResponseWriter, status int, resp ErrorResponse) {
	s.errorsN.Add(1)
	writeJSON(w, status, resp)
}

// decode reads a JSON request body, answering 400 on malformed input.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(into); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("malformed request body: %v", err), Code: "bad_request",
		})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
