package main

// The scripted smoke client behind -selfcheck and -smoke: a plain HTTP
// client (no shared state with the server) that exercises every serving
// feature end to end — health, ad-hoc queries, prepared hit/miss against
// the plan cache, overload shedding, and a streamed 1M-row result whose
// rows must digest like the rows the engine streams for the same SQL.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"reflect"
	"sync"
	"time"

	"fusedscan"
	"fusedscan/internal/server"
)

type smokeOpts struct {
	// eng, when non-nil (selfcheck), enables the byte-identical comparison
	// against direct engine execution and the governance-driven 429 leg.
	eng     *fusedscan.Engine
	want429 bool
}

func smoke(base string, opts smokeOpts) error {
	client := &http.Client{Timeout: 120 * time.Second}

	// 1. Health.
	var health struct {
		OK bool `json:"ok"`
	}
	if err := getJSON(client, base+"/healthz", &health); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if !health.OK {
		return fmt.Errorf("healthz: not ok")
	}

	// 2. Ad-hoc count, and byte-identical cross-check when we hold the
	// engine.
	const countSQL = "SELECT COUNT(*) FROM demo WHERE a = 5 AND b = 5"
	var countResp server.QueryResponse
	if err := postJSON(client, base+"/query", server.QueryRequest{SQL: countSQL}, &countResp); err != nil {
		return fmt.Errorf("ad-hoc query: %w", err)
	}
	if countResp.Count <= 0 {
		return fmt.Errorf("ad-hoc query: expected a positive count, got %d", countResp.Count)
	}
	const rowsSQL = "SELECT a, b, d FROM demo WHERE c = 5 AND d < 100 ORDER BY d LIMIT 5"
	var rowsResp server.QueryResponse
	if err := postJSON(client, base+"/query", server.QueryRequest{SQL: rowsSQL}, &rowsResp); err != nil {
		return fmt.Errorf("ad-hoc rows query: %w", err)
	}
	if opts.eng != nil {
		for _, probe := range []struct {
			sql  string
			resp server.QueryResponse
		}{{countSQL, countResp}, {rowsSQL, rowsResp}} {
			direct, err := opts.eng.Query(probe.sql)
			if err != nil {
				return fmt.Errorf("direct %q: %w", probe.sql, err)
			}
			if direct.Count != probe.resp.Count || !reflect.DeepEqual(direct.Rows, probe.resp.Rows) {
				return fmt.Errorf("server result diverges from direct execution for %q: count %d vs %d, rows %v vs %v",
					probe.sql, probe.resp.Count, direct.Count, probe.resp.Rows, direct.Rows)
			}
		}
	}

	// 3. Prepared statements: prepare once (a cache miss warms the
	// skeleton), execute twice (both hits), verify against the ad-hoc
	// result and the /varz plan-cache counters. Ad hoc statements plan
	// through the same cache, so the prepared spelling lists the
	// predicates in the other order: a shape step 2 has not planted.
	before, err := varz(client, base)
	if err != nil {
		return err
	}
	var prep server.PrepareResponse
	err = postJSON(client, base+"/prepare", server.PrepareRequest{SQL: "SELECT COUNT(*) FROM demo WHERE b = $2 AND a = $1"}, &prep)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if prep.NumParams != 2 || prep.Session == "" || prep.Stmt == "" {
		return fmt.Errorf("prepare: unexpected response %+v", prep)
	}
	for i := 0; i < 2; i++ {
		var ex server.QueryResponse
		err = postJSON(client, base+"/execute", server.ExecuteRequest{Session: prep.Session, Stmt: prep.Stmt, Args: []string{"5", "5"}}, &ex)
		if err != nil {
			return fmt.Errorf("execute #%d: %w", i+1, err)
		}
		if ex.Count != countResp.Count {
			return fmt.Errorf("execute #%d: count %d, ad-hoc said %d", i+1, ex.Count, countResp.Count)
		}
	}
	after, err := varz(client, base)
	if err != nil {
		return err
	}
	if after.Engine.PlanCacheMisses <= before.Engine.PlanCacheMisses {
		return fmt.Errorf("plan cache: prepare did not record a miss (%d -> %d)",
			before.Engine.PlanCacheMisses, after.Engine.PlanCacheMisses)
	}
	if after.Engine.PlanCacheHits < before.Engine.PlanCacheHits+2 {
		return fmt.Errorf("plan cache: executes did not hit (%d -> %d)",
			before.Engine.PlanCacheHits, after.Engine.PlanCacheHits)
	}
	if after.Engine.PlanCacheHits <= 0 {
		return fmt.Errorf("plan cache: hit rate is zero")
	}

	// 4. Overload shedding: tighten admission to one query at a time and
	// hammer the server until a structured 429 with Retry-After appears.
	if opts.want429 && opts.eng != nil {
		if err := smoke429(client, base, opts.eng); err != nil {
			return err
		}
	}

	// 5. A streamed large result: every demo row leaves as ndjson batches
	// on the native path; the trailer count must match the rows received.
	// Selfcheck knows the demo table holds 1M rows and compares a digest of
	// every streamed row against the rows the engine hands its own Stream
	// callback; against a remote server only the framing and count
	// agreement are checked.
	var minRows int64 = 1
	if opts.eng != nil {
		minRows = 1_000_000
	}
	if err := smokeStream(client, base, minRows, opts.eng); err != nil {
		return err
	}
	return nil
}

// smoke429 drives concurrent queries into a MaxConcurrent=1 engine until
// at least one is shed with HTTP 429 + Retry-After and at least one
// succeeds. Governance is restored before returning.
func smoke429(client *http.Client, base string, eng *fusedscan.Engine) error {
	saved := eng.Governance()
	tight := saved
	tight.MaxConcurrent = 1
	tight.MaxQueue = 0
	eng.SetGovernance(tight)
	defer eng.SetGovernance(saved)

	const rounds, workers = 10, 8
	for round := 0; round < rounds; round++ {
		var mu sync.Mutex
		var got429, got200 bool
		var retryAfter string
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, _ := json.Marshal(server.QueryRequest{SQL: "SELECT COUNT(*) FROM demo WHERE a = 5 AND b = 5 AND c = 5"})
				resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusTooManyRequests:
					got429 = true
					retryAfter = resp.Header.Get("Retry-After")
				case http.StatusOK:
					got200 = true
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
		if got429 && got200 {
			if retryAfter == "" {
				return fmt.Errorf("overload: 429 without a Retry-After header")
			}
			return nil
		}
	}
	return fmt.Errorf("overload: no 429 observed across %d rounds of %d concurrent queries", rounds, workers)
}

// rowDigest folds rows, in order, into one SHA-256; every cell is
// length-prefixed so row and cell boundaries count.
type rowDigest struct {
	h    hash.Hash
	rows int64
}

func newRowDigest() *rowDigest { return &rowDigest{h: sha256.New()} }

func (d *rowDigest) add(rows [][]string) {
	var n [8]byte
	for _, row := range rows {
		binary.LittleEndian.PutUint64(n[:], uint64(len(row)))
		d.h.Write(n[:])
		for _, cell := range row {
			binary.LittleEndian.PutUint64(n[:], uint64(len(cell)))
			d.h.Write(n[:])
			io.WriteString(d.h, cell)
		}
	}
	d.rows += int64(len(rows))
}

func (d *rowDigest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// smokeStream requests every demo row as an ndjson stream and checks the
// header/batches/trailer framing and the row count against the trailer.
// It decodes with plain encoding/json, independent of internal/client.
// With eng set it also checks that the streamed rows digest exactly like
// the rows eng hands its own Stream callback for the same SQL.
func smokeStream(client *http.Client, base string, minRows int64, eng *fusedscan.Engine) error {
	const sql = "SELECT d FROM demo WHERE d >= 0"
	body, _ := json.Marshal(server.QueryRequest{SQL: sql, Stream: true, Config: "native"})
	resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("stream: status %d: %s", resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	got := newRowDigest()
	var sawHeader, sawTrailer bool
	var trailer server.StreamTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if !sawHeader {
			var hdr server.StreamHeader
			if err := json.Unmarshal(line, &hdr); err != nil || len(hdr.Columns) == 0 {
				return fmt.Errorf("stream: bad header line %q", line)
			}
			sawHeader = true
			continue
		}
		var batch server.StreamBatch
		if err := json.Unmarshal(line, &batch); err == nil && batch.Rows != nil {
			got.add(batch.Rows)
			continue
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			return fmt.Errorf("stream: unrecognized line %q", line)
		}
		sawTrailer = true
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if !sawHeader || !sawTrailer {
		return fmt.Errorf("stream: missing header or trailer (header=%v trailer=%v)", sawHeader, sawTrailer)
	}
	if !trailer.Done || trailer.Error != "" {
		return fmt.Errorf("stream: trailer reports failure: %+v", trailer)
	}
	if trailer.Count != got.rows {
		return fmt.Errorf("stream: received %d rows but trailer says %d", got.rows, trailer.Count)
	}
	if got.rows < minRows {
		return fmt.Errorf("stream: expected at least %d rows from the demo table, got %d", minRows, got.rows)
	}
	if eng == nil {
		return nil
	}
	native := fusedscan.NativeConfig()
	want := newRowDigest()
	_, err = eng.QueryWith(context.Background(), sql, fusedscan.QueryOptions{Config: &native,
		Stream: func(_ []string, rows [][]string) error {
			want.add(rows)
			return nil
		}})
	if err != nil {
		return fmt.Errorf("stream: direct engine stream: %w", err)
	}
	if got.rows != want.rows || got.sum() != want.sum() {
		return fmt.Errorf("stream: %d streamed rows digest to %s, the engine's own stream of %d rows to %s",
			got.rows, got.sum(), want.rows, want.sum())
	}
	return nil
}

func varz(client *http.Client, base string) (server.VarzResponse, error) {
	var v server.VarzResponse
	if err := getJSON(client, base+"/varz", &v); err != nil {
		return v, fmt.Errorf("varz: %w", err)
	}
	return v, nil
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeJSON(resp, into)
}

func postJSON(client *http.Client, url string, req, into any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeJSON(resp, into)
}

func decodeJSON(resp *http.Response, into any) error {
	if resp.StatusCode != http.StatusOK {
		var er server.ErrorResponse
		b, _ := io.ReadAll(resp.Body)
		if json.Unmarshal(b, &er) == nil && er.Error != "" {
			return fmt.Errorf("status %d (%s): %s", resp.StatusCode, er.Code, er.Error)
		}
		return fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
