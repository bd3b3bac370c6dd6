// Package client is a resilient HTTP client for fusedscan-server: typed
// API errors, jittered-exponential retries that honor the server's
// Retry-After hint, a circuit breaker on consecutive transport/5xx
// failures, and deadline forwarding so the server can shed work the
// caller would no longer wait for.
//
// Retries are safe by construction: every endpoint the client retries is
// a read (queries against immutable column data), and a streamed query is
// only retried while zero row batches have been delivered — once the
// first batch reaches the caller a mid-stream failure surfaces as an
// error instead of risking duplicated rows.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/govern"
	"fusedscan/internal/server"
)

// Options configures a Client. The zero value (plus BaseURL) is usable:
// 3 retries with 100ms initial backoff, breaker tripping after 3
// consecutive transport/5xx failures with a 250ms cooldown.
type Options struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides the transport; nil uses a plain &http.Client{}
	// (per-request deadlines come from the context, see Timeout).
	HTTPClient *http.Client
	// Timeout bounds one logical call — all retry attempts included —
	// when the caller's context has no deadline of its own. 0 means 2
	// minutes; negative disables the guard.
	Timeout time.Duration
	// Retries is how many times a transient failure (429, 5xx, transport
	// error, open breaker) is retried. 0 means 3; negative disables.
	Retries int
	// Backoff is the initial retry backoff, doubling per attempt and
	// jittered over [d/2, d]. A server Retry-After hint overrides it.
	// 0 means 100ms.
	Backoff time.Duration
	// BreakerThreshold is how many consecutive transport/5xx failures
	// trip the client-side circuit breaker (429 shed responses do not
	// count: the server is healthy, just busy). 0 means 3; negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before a probe,
	// doubling (capped at 20x) while probes keep failing. 0 means 250ms.
	BreakerCooldown time.Duration
}

func (o Options) retries() int {
	if o.Retries < 0 {
		return 0
	}
	if o.Retries == 0 {
		return 3
	}
	return o.Retries
}

func (o Options) backoff() time.Duration {
	if o.Backoff <= 0 {
		return 100 * time.Millisecond
	}
	return o.Backoff
}

func (o Options) timeout() time.Duration {
	if o.Timeout < 0 {
		return 0
	}
	if o.Timeout == 0 {
		return 2 * time.Minute
	}
	return o.Timeout
}

// APIError is a non-2xx response decoded into the server's typed error
// taxonomy. It implements govern.RetryAfterHinter so retry loops sleep
// the server's own hint instead of a fixed schedule.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable class from the body
	// ("overloaded", "deadline_exhausted", "timeout", ...), empty when
	// the body was not a structured ErrorResponse.
	Code string
	// Message is the human-readable error text.
	Message string
	// Stage is where query processing failed, when known.
	Stage string
	// RetryAfter is the server's advice on when a retry could succeed,
	// from the JSON body's retry_after_ms or the Retry-After header.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.Status)
	}
	if e.Code != "" {
		msg = fmt.Sprintf("%s (%s)", msg, e.Code)
	}
	if e.RetryAfter > 0 {
		msg = fmt.Sprintf("%s; retry in ~%v", msg, e.RetryAfter.Round(time.Millisecond))
	}
	return fmt.Sprintf("server status %d: %s", e.Status, msg)
}

// RetryAfterHint implements govern.RetryAfterHinter.
func (e *APIError) RetryAfterHint() time.Duration { return e.RetryAfter }

// Transient reports whether retrying could plausibly succeed: the server
// shed the request (429) or failed internally (5xx). Everything else —
// bad requests, unknown sessions, blown memory budgets — is the caller's
// to fix.
func (e *APIError) Transient() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Stats are the client's cumulative counters.
type Stats struct {
	// Requests counts HTTP requests actually issued (retries included).
	Requests int64
	// Retries counts attempts beyond the first.
	Retries int64
	// BreakerRejects counts attempts refused locally by the open breaker.
	BreakerRejects int64
	// Breaker is the circuit breaker's own snapshot.
	Breaker govern.BreakerStats
}

// Client is a resilient fusedscan-server client. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	opts    Options
	breaker *govern.Breaker

	requests       atomic.Int64
	retriesN       atomic.Int64
	breakerRejects atomic.Int64
}

// New builds a Client from opts.
func New(opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	bc := govern.BreakerConfig{
		FailureThreshold: opts.BreakerThreshold,
		Cooldown:         opts.BreakerCooldown,
	}
	if opts.BreakerThreshold < 0 {
		bc.Disabled = true
	}
	return &Client{
		base:    strings.TrimRight(opts.BaseURL, "/"),
		hc:      hc,
		opts:    opts,
		breaker: govern.NewBreaker(bc),
	}
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:       c.requests.Load(),
		Retries:        c.retriesN.Load(),
		BreakerRejects: c.breakerRejects.Load(),
		Breaker:        c.breaker.Stats(),
	}
}

// BaseURL returns the server root this client talks to.
func (c *Client) BaseURL() string { return c.base }

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	OK     bool `json:"ok"`
	Tables int  `json:"tables"`
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var h HealthResponse
	err := c.call(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Tables lists serving tables and the quarantine set.
func (c *Client) Tables(ctx context.Context) (server.TablesResponse, error) {
	var t server.TablesResponse
	err := c.call(ctx, http.MethodGet, "/tables", nil, &t)
	return t, err
}

// Varz fetches the engine + server counters.
func (c *Client) Varz(ctx context.Context) (server.VarzResponse, error) {
	var v server.VarzResponse
	err := c.call(ctx, http.MethodGet, "/varz", nil, &v)
	return v, err
}

// Session creates a server session.
func (c *Client) Session(ctx context.Context, req server.SessionRequest) (server.SessionResponse, error) {
	var s server.SessionResponse
	err := c.call(ctx, http.MethodPost, "/session", req, &s)
	return s, err
}

// Query runs one ad-hoc statement (req.Stream must be false; use Stream).
func (c *Client) Query(ctx context.Context, req server.QueryRequest) (server.QueryResponse, error) {
	var q server.QueryResponse
	if req.Stream {
		return q, errors.New("client: Query cannot stream; use Stream")
	}
	err := c.call(ctx, http.MethodPost, "/query", req, &q)
	return q, err
}

// Prepare registers a prepared statement (creating a session implicitly
// when req.Session is empty).
func (c *Client) Prepare(ctx context.Context, req server.PrepareRequest) (server.PrepareResponse, error) {
	var p server.PrepareResponse
	err := c.call(ctx, http.MethodPost, "/prepare", req, &p)
	return p, err
}

// Execute runs a prepared statement.
func (c *Client) Execute(ctx context.Context, req server.ExecuteRequest) (server.QueryResponse, error) {
	var q server.QueryResponse
	err := c.call(ctx, http.MethodPost, "/execute", req, &q)
	return q, err
}

// StreamResult summarizes a completed streamed query.
type StreamResult struct {
	Columns       []string
	Count         int64
	ElapsedMicros int64
}

// Stream runs req as an ndjson streamed query, invoking onBatch for each
// row batch. Transient failures are retried only while no batch has been
// delivered; after the first delivery a failure is returned as-is so rows
// are never duplicated. A mid-stream server failure (trailer with an
// error) surfaces as an *APIError carrying the trailer's typed code.
func (c *Client) Stream(ctx context.Context, req server.QueryRequest, onBatch func(rows [][]string) error) (StreamResult, error) {
	req.Stream = true
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	var res StreamResult
	delivered := false
	transient := func(err error) bool {
		return !delivered && c.transient(err)
	}
	attempts, err := govern.Retry(ctx, c.opts.retries(), c.opts.backoff(), transient, func() error {
		var err error
		res, err = c.streamOnce(ctx, req, &delivered, onBatch)
		return err
	})
	c.retriesN.Add(int64(attempts - 1))
	return res, err
}

func (c *Client) streamOnce(ctx context.Context, req server.QueryRequest, delivered *bool, onBatch func(rows [][]string) error) (StreamResult, error) {
	var res StreamResult
	resp, err := c.issue(ctx, http.MethodPost, "/query", req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, decodeAPIError(resp)
	}
	c.breaker.Success()
	// Header and trailer decode with encoding/json; each row-batch line is
	// scanned once by parseBatchLine.
	lines := lineReader{r: bufio.NewReaderSize(resp.Body, 64<<10)}
	line, err := lines.next()
	if err != nil {
		return res, fmt.Errorf("client: stream header: %w", err)
	}
	var hdr server.StreamHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return res, fmt.Errorf("client: stream header: %w", err)
	}
	res.Columns = hdr.Columns
	for {
		line, err := lines.next()
		if err != nil {
			// The stream ended without a trailer: the server dropped the
			// connection mid-flight (its write deadline, a crash). The rows
			// delivered so far may be partial.
			return res, fmt.Errorf("client: stream truncated without trailer: %w", err)
		}
		if bytes.HasPrefix(line, batchPrefix) {
			rows, err := parseBatchLine(line)
			if err != nil {
				return res, err
			}
			if rows != nil {
				*delivered = true
				if onBatch != nil {
					if err := onBatch(rows); err != nil {
						return res, err
					}
				}
				continue
			}
			// {"rows":null} is no batch; like any other line it must be the
			// trailer.
		}
		var trailer server.StreamTrailer
		if err := json.Unmarshal(line, &trailer); err != nil {
			return res, fmt.Errorf("client: stream line: %w", err)
		}
		if trailer.Error != "" || !trailer.Done {
			return res, &APIError{
				Status:  http.StatusOK, // status was committed before the failure
				Code:    trailer.Code,
				Message: trailer.Error,
				Stage:   trailer.Stage,
			}
		}
		res.Count = trailer.Count
		res.ElapsedMicros = trailer.ElapsedMicros
		return res, nil
	}
}

// lineReader yields an ndjson stream's lines, reusing one buffer.
type lineReader struct {
	r   *bufio.Reader
	buf []byte
}

// next returns the next line without its newline, valid until the
// following call. The server ends every line with a newline, so the
// stream ending mid-line is io.ErrUnexpectedEOF; ending between lines is
// io.EOF.
func (l *lineReader) next() ([]byte, error) {
	l.buf = l.buf[:0]
	for {
		chunk, err := l.r.ReadSlice('\n')
		l.buf = append(l.buf, chunk...)
		switch {
		case err == nil:
			return l.buf[:len(l.buf)-1], nil
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF && len(l.buf) > 0:
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
}

// batchPrefix starts every row-batch line (server.AppendBatchLine).
var batchPrefix = []byte(`{"rows":`)

// parseBatchLine decodes a row-batch line in the compact form the server
// writes — {"rows":[[cell,...],...]}, with null for a nil row or rows — in
// one pass, returning exactly what encoding/json decodes from it. Every
// cell is a substring of one string copied from the line; a cell holding
// an escape or a byte outside printable ASCII is decoded by encoding/json
// on its own. The caller has checked that line starts with batchPrefix.
func parseBatchLine(line []byte) ([][]string, error) {
	text := string(line)
	p := batchScanner{s: text, i: len(batchPrefix)}
	if p.literal("null") {
		if !p.byte('}') {
			return nil, p.fail()
		}
		return nil, p.end()
	}
	if !p.byte('[') {
		return nil, p.fail()
	}
	var cells []string
	var ends []int // cells[ends[r-1]:ends[r]] is row r; -1 marks a nil row
	for !p.byte(']') {
		if len(ends) > 0 && !p.byte(',') {
			return nil, p.fail()
		}
		if p.literal("null") {
			ends = append(ends, -1)
			continue
		}
		if !p.byte('[') {
			return nil, p.fail()
		}
		for first := true; !p.byte(']'); first = false {
			if !first && !p.byte(',') {
				return nil, p.fail()
			}
			cell, err := p.str()
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
		ends = append(ends, len(cells))
	}
	if !p.byte('}') {
		return nil, p.fail()
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	rows, start := make([][]string, len(ends)), 0
	for r, end := range ends {
		if end >= 0 {
			rows[r], start = cells[start:end:end], end
		}
	}
	return rows, nil
}

// batchScanner walks one batch line.
type batchScanner struct {
	s string
	i int
}

func (p *batchScanner) byte(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *batchScanner) literal(lit string) bool {
	if strings.HasPrefix(p.s[p.i:], lit) {
		p.i += len(lit)
		return true
	}
	return false
}

// str scans one JSON string. A plain one is returned as a substring;
// any other goes through json.Unmarshal.
func (p *batchScanner) str() (string, error) {
	if !p.byte('"') {
		return "", p.fail()
	}
	start, plain := p.i, true
	for ; p.i < len(p.s); p.i++ {
		switch c := p.s[p.i]; {
		case c == '"':
			p.i++
			if plain {
				return p.s[start : p.i-1], nil
			}
			var out string
			if err := json.Unmarshal([]byte(p.s[start-1:p.i]), &out); err != nil {
				return "", fmt.Errorf("client: stream batch line: %w", err)
			}
			return out, nil
		case c == '\\':
			plain = false
			p.i++ // the escaped byte cannot end the string
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return "", p.fail()
}

// end checks that the line is fully consumed.
func (p *batchScanner) end() error {
	if p.i != len(p.s) {
		return p.fail()
	}
	return nil
}

func (p *batchScanner) fail() error {
	return fmt.Errorf("client: stream batch line: malformed at byte %d", p.i)
}

// call runs one retried request/response exchange.
func (c *Client) call(ctx context.Context, method, path string, reqBody, into any) error {
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	attempts, err := govern.Retry(ctx, c.opts.retries(), c.opts.backoff(), c.transient, func() error {
		return c.once(ctx, method, path, reqBody, into)
	})
	c.retriesN.Add(int64(attempts - 1))
	return err
}

// callContext applies the client-level timeout when the caller set no
// deadline of their own.
func (c *Client) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	if t := c.opts.timeout(); t > 0 {
		return context.WithTimeout(ctx, t)
	}
	return ctx, func() {}
}

// transient decides what Retry may try again: typed transient API errors
// (429/5xx), an open breaker (sleeping its cooldown hint), and transport
// errors — except context expiry, which means the caller is done waiting.
func (c *Client) transient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Transient()
	}
	var boe *govern.BreakerOpenError
	if errors.As(err, &boe) {
		return true
	}
	return true // transport error
}

// once issues a single attempt: breaker gate, fault injection, request,
// decode. Breaker accounting: 2xx closes, 5xx/transport counts a failure,
// 429 and caller errors (4xx) count neither — the server is healthy.
func (c *Client) once(ctx context.Context, method, path string, reqBody, into any) error {
	resp, err := c.issue(ctx, method, path, reqBody)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	c.breaker.Success()
	if into == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// issue sends one HTTP request. The returned response's body is open;
// non-2xx breaker accounting happens here so streaming and unary paths
// share it.
func (c *Client) issue(ctx context.Context, method, path string, reqBody any) (*http.Response, error) {
	if err := c.breaker.Allow(); err != nil {
		c.breakerRejects.Add(1)
		return nil, err
	}
	if err := faultinject.Hit(faultinject.SiteClientConnReset); err != nil {
		// Simulate the peer resetting the connection mid-request: a
		// transport-level failure the retry loop must absorb.
		c.breaker.Failure()
		return nil, fmt.Errorf("client: %s %s: %w", method, path, syscall.ECONNRESET)
	}
	var body io.Reader
	if reqBody != nil {
		b, err := json.Marshal(reqBody)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Forward the caller's remaining budget so the server can reject the
	// request up front when its queue alone would exhaust it.
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	c.requests.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.breaker.Failure()
		return nil, err
	}
	if resp.StatusCode >= 500 {
		c.breaker.Failure()
	}
	return resp, nil
}

// decodeAPIError turns a non-2xx response into an *APIError, consuming
// the body.
func decodeAPIError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var er server.ErrorResponse
	if json.Unmarshal(b, &er) == nil && er.Error != "" {
		ae.Code = er.Code
		ae.Message = er.Error
		ae.Stage = er.Stage
		ae.RetryAfter = time.Duration(er.RetryAfterMillis) * time.Millisecond
	} else {
		ae.Message = strings.TrimSpace(string(b))
	}
	if ae.RetryAfter == 0 {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	return ae
}
