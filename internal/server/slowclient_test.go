package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fusedscan"
	"fusedscan/internal/faultinject"
)

// newWideEngine builds an engine whose table is big enough that a
// streamed full-table result (several MB of ndjson) cannot hide in
// kernel socket buffers — a client that stops reading WILL stall the
// server's writes.
func newWideEngine(t *testing.T, rows int) *fusedscan.Engine {
	t.Helper()
	eng := fusedscan.NewEngine()
	av := make([]int32, rows)
	bv := make([]int32, rows)
	cv := make([]int32, rows)
	dv := make([]int32, rows)
	for i := 0; i < rows; i++ {
		av[i] = int32(i % 1000)
		bv[i] = int32(i % 997)
		cv[i] = int32(i)
		dv[i] = int32(i % 31)
	}
	tb := eng.CreateTable("wide")
	tb.Int32("a", av)
	tb.Int32("b", bv)
	tb.Int32("c", cv)
	tb.Int32("d", dv)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// startServer runs s on a real loopback listener (httptest) so write
// deadlines act on a real TCP connection, and tears it down with the test.
func startServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts
}

func varz(t *testing.T, baseURL string) VarzResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v VarzResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestStalledStreamReaderReleasesSlotAndBudget is the slow-client
// defense end to end over real TCP: a client requests a multi-megabyte
// ndjson stream, reads a token amount, and stops — without closing. The
// per-write deadline must kill the query within its bound, releasing the
// admission slot (Running back to 0, new queries admitted) and the
// query's memory budget, and counting a slow-client drop.
func TestStalledStreamReaderReleasesSlotAndBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP stall test")
	}
	eng := newWideEngine(t, 400_000)
	gov := fusedscan.DefaultGovernance()
	gov.MaxConcurrent = 1
	gov.MaxQueue = 0
	gov.MemBudgetBytes = 256 << 20
	eng.SetGovernance(gov)
	const writeDeadline = 500 * time.Millisecond
	s := New(eng, Options{StreamWriteTimeout: writeDeadline})
	ts := startServer(t, s)

	u := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", u)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"sql":"SELECT a, b, c, d FROM wide WHERE d >= 0","stream":true}`
	fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", u, len(body), body)
	// Read a token amount so the response is known to have started, then
	// stall: never read again, never close.
	br := bufio.NewReaderSize(conn, 1024)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading status line: %v", err)
	}
	if !strings.Contains(line, "200") {
		t.Fatalf("status line %q, want 200 (the stream starts before the stall)", line)
	}

	// The server must disconnect the stalled stream within the write
	// deadline (plus scheduling slack) and free the admission slot.
	deadline := time.Now().Add(writeDeadline + 5*time.Second)
	for {
		st := eng.Stats()
		if st.Running == 0 && varz(t, ts.URL).Server.SlowClientDrops >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled client not dropped: engine running=%d, drops=%d",
				st.Running, varz(t, ts.URL).Server.SlowClientDrops)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Slot and memory budget are back: a fresh governed query (same
	// MaxConcurrent=1 slot, same budget pool) runs to completion.
	res, err := eng.Query("SELECT COUNT(*) FROM wide WHERE d = 5")
	if err != nil {
		t.Fatalf("query after slow-client drop: %v", err)
	}
	if res.Count == 0 {
		t.Fatal("post-drop query returned no rows")
	}
}

// TestInjectedWriteStallDropsStream drives the same path deterministically
// through the server.write.stall fault site: the armed hit expires the
// write deadline immediately, so the batch flush fails exactly like a
// reader stalled past the whole budget — no real timing involved.
func TestInjectedWriteStallDropsStream(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng := newTestEngine(t)
	gov := fusedscan.DefaultGovernance()
	gov.MaxConcurrent = 1
	gov.MaxQueue = 0
	eng.SetGovernance(gov)
	s := New(eng, Options{StreamWriteTimeout: 10 * time.Second})
	ts := startServer(t, s)

	// Second write (first row batch; the header is write #1).
	faultinject.Arm(faultinject.SiteServerWriteStall, 2, faultinject.ModeError)
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql":"SELECT a, b FROM t WHERE a >= 0","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The stream dies mid-flight: the body ends without a done:true
	// trailer (the poisoned connection cannot carry one).
	sawDone := false
	dec := json.NewDecoder(resp.Body)
	for {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			break
		}
		if done, ok := line["done"].(bool); ok && done {
			sawDone = true
		}
	}
	if sawDone {
		t.Fatal("stream completed despite the injected write stall")
	}

	waitForStats(t, eng, func(st fusedscan.EngineStats) bool { return st.Running == 0 })
	// The handler counts the drop after its query returns, so the body can
	// end before the counter moves: poll until it does.
	drops := varz(t, ts.URL).Server.SlowClientDrops
	for deadline := time.Now().Add(5 * time.Second); drops == 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		drops = varz(t, ts.URL).Server.SlowClientDrops
	}
	if drops != 1 {
		t.Fatalf("SlowClientDrops = %d, want 1", drops)
	}
	// The admission slot came back.
	if _, err := eng.Query("SELECT COUNT(*) FROM t WHERE a = 1"); err != nil {
		t.Fatalf("query after injected stall: %v", err)
	}
}

func waitForStats(t *testing.T, eng *fusedscan.Engine, cond func(fusedscan.EngineStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(eng.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("engine stats condition not reached: %+v", eng.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineHeaderPropagates: the X-Fusedscan-Deadline-Ms header becomes
// the query's context deadline — a microscopic budget on a saturated
// engine expires while the query waits in the admission queue (the wait
// is charged against the budget) and comes back as a typed deadline
// failure, not a hang.
func TestDeadlineHeaderPropagates(t *testing.T) {
	eng := newTestEngine(t)
	gov := fusedscan.DefaultGovernance()
	gov.MaxConcurrent = 1
	gov.MaxQueue = 4
	gov.QueueWait = 5 * time.Second
	eng.SetGovernance(gov)
	s := New(eng, Options{})
	ts := startServer(t, s)

	// Saturate the only slot with a slow streaming consumer so the
	// header-bounded query has to queue; its 1ms budget dies there.
	slotHeld := make(chan struct{})
	slotDone := make(chan struct{})
	go func() {
		defer close(slotDone)
		first := true
		_, err := eng.QueryWith(context.Background(), "SELECT a, b FROM t WHERE a >= 0", fusedscan.QueryOptions{
			Stream: func(cols []string, rows [][]string) error {
				if first {
					first = false
					close(slotHeld)
					time.Sleep(400 * time.Millisecond)
				}
				return nil
			},
		})
		if err != nil {
			t.Errorf("slot-holding query: %v", err)
		}
	}()
	<-slotHeld

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"sql":"SELECT a, b FROM t WHERE a >= 0"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 for a 1ms deadline budget", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "timeout" && er.Code != "deadline_exhausted" {
		t.Fatalf("code = %q, want a deadline-class code", er.Code)
	}
	<-slotDone

	// Body timeout_ms wins over the header.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) FROM t WHERE a = 1","timeout_ms":30000}`))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(DeadlineHeader, "1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body timeout_ms overrides the header)", resp2.StatusCode)
	}
}

// TestDeadlineExhaustedTaxonomy: with service history and a saturated
// queue, an impossible budget is rejected early with the sharper
// "deadline_exhausted" code and a Retry-After derived from drain rate —
// before burning a queue slot.
func TestDeadlineExhaustedTaxonomy(t *testing.T) {
	eng := newTestEngine(t)
	gov := fusedscan.DefaultGovernance()
	gov.MaxConcurrent = 1
	gov.MaxQueue = 4
	gov.QueueWait = 2 * time.Second
	eng.SetGovernance(gov)
	s := New(eng, Options{})
	ts := startServer(t, s)

	// Build service-time history so the early-reject estimator has data.
	for i := 0; i < 8; i++ {
		if _, err := eng.Query("SELECT COUNT(*) FROM t WHERE a = 1 AND b = 1"); err != nil {
			t.Fatal(err)
		}
	}

	// Saturate the only slot with a slow streaming consumer we control.
	slotHeld := make(chan struct{})
	slotDone := make(chan struct{})
	go func() {
		defer close(slotDone)
		first := true
		_, err := eng.QueryWith(context.Background(), "SELECT a, b FROM t WHERE a >= 0", fusedscan.QueryOptions{
			Stream: func(cols []string, rows [][]string) error {
				if first {
					first = false
					close(slotHeld)
					time.Sleep(600 * time.Millisecond)
				}
				return nil
			},
		})
		if err != nil {
			t.Errorf("slot-holding query: %v", err)
		}
	}()
	<-slotHeld

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) FROM t WHERE a = 1"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "1") // 1ms cannot cover queue wait + service
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || er.Code != "deadline_exhausted" {
		t.Fatalf("got %d %q, want 504 deadline_exhausted", resp.StatusCode, er.Code)
	}
	if er.RetryAfterMillis <= 0 {
		t.Errorf("RetryAfterMillis = %d, want a positive drain-derived hint", er.RetryAfterMillis)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("Retry-After header missing on deadline_exhausted")
	}
	<-slotDone
	if v := varz(t, ts.URL); v.Engine.DeadlineRejects < 1 || v.Server.DeadlineRejects < 1 {
		t.Errorf("deadline rejects: engine=%d server=%d, want >=1 in both", v.Engine.DeadlineRejects, v.Server.DeadlineRejects)
	}
}

// TestSlowlorisHeaderTimeout: a connection that never sends headers is
// closed within ReadHeaderTimeout instead of holding its slot forever.
// This must go through Server.Serve (not httptest's own http.Server),
// since that is where the timeout is configured.
func TestSlowlorisHeaderTimeout(t *testing.T) {
	eng := newTestEngine(t)
	s := New(eng, Options{ReadHeaderTimeout: 200 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		<-done
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. The server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server wrote without a request")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open 5s after connect: ReadHeaderTimeout not enforced")
	}
	// err is io.EOF or a reset: the server closed the idle half-open
	// connection. That is the slowloris defense.
}
