package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fusedscan"
)

// fuzzServer builds one shared server over a tiny table; the fuzz harness
// calls the target many times, so construction is amortized.
var fuzzOnce struct {
	sync.Once
	srv *Server
}

func fuzzHandler() *Server {
	fuzzOnce.Do(func() {
		eng := fusedscan.NewEngine()
		tb := eng.CreateTable("t")
		tb.Int32("a", []int32{1, 2, 3, 4, 5})
		tb.Int32("b", []int32{5, 4, 3, 2, 1})
		if err := tb.Finish(); err != nil {
			panic(err)
		}
		fuzzOnce.srv = New(eng, Options{})
	})
	return fuzzOnce.srv
}

// FuzzServeQuery feeds arbitrary bytes to the /query HTTP decoder and
// arbitrary SQL + parameter strings through the full prepare/execute
// substitution path. The serving contract: any input yields an HTTP
// response with a sane status and a parseable body — never a panic, never
// a hung handler.
func FuzzServeQuery(f *testing.F) {
	// Seeds: the FuzzParse statement corpus wrapped in request JSON, raw
	// malformed bodies, and parameterized statements with hostile args.
	sqlSeeds := []string{
		"SELECT COUNT(*) FROM t WHERE a = 5 AND b = 5",
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a >= 1 AND b <= 2 AND c <> 3",
		"SELECT COUNT(*), SUM(a), MIN(b), MAX(c), AVG(d) FROM t",
		"SELECT a FROM t WHERE b IS NULL",
		"SELECT a FROM t WHERE b IS NOT NULL ORDER BY a DESC LIMIT 10",
		"SELECT a FROM t WHERE f = 1.5e10",
		"select a from t where b != 7 order by a asc",
		"SELECT",
		"SELECT * FROM t WHERE a =",
		"SELECT * FROM t; DROP TABLE t",
		"SELECT (((((",
		"'unterminated",
		"SELECT \x00 FROM t",
		"SELECT COUNT(*) FROM t WHERE a = $1",
		"SELECT a FROM t WHERE a = $1 AND b BETWEEN $2 AND $3",
		"SELECT a FROM t WHERE a = $999",
		"SELECT a FROM t WHERE a = $0",
		strings.Repeat("(", 2_000),
	}
	for _, s := range sqlSeeds {
		body, _ := json.Marshal(QueryRequest{SQL: s})
		f.Add(body, s, "1", true)
		f.Add(body, s, "", false)
	}
	f.Add([]byte("{not json"), "SELECT COUNT(*) FROM t WHERE a = $1", "-0x7f", false)
	f.Add([]byte(`{"sql":"SELECT * FROM t","stream":true}`), "x", "NULL", true)
	f.Add([]byte(`{"sql":123}`), "SELECT a FROM t WHERE a = $1", "999999999999999999999", false)
	f.Add([]byte(""), "", "\x00\xff", true)

	f.Fuzz(func(t *testing.T, rawBody []byte, sql, arg string, stream bool) {
		s := fuzzHandler()

		// Leg 1: raw bytes straight at the HTTP decoder.
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(rawBody))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		checkResponse(t, w, "raw body")

		// Leg 2: a well-formed envelope around fuzzed SQL + fuzzed argument
		// (the parameter-substitution path: normalize, cache, clone, bind).
		body, err := json.Marshal(QueryRequest{SQL: sql, Args: []string{arg}, Stream: stream})
		if err != nil {
			return
		}
		req = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		w = httptest.NewRecorder()
		s.ServeHTTP(w, req)
		checkResponse(t, w, "fuzzed sql")

		// Leg 3: the same SQL through prepare; on success, execute it with
		// the fuzzed argument.
		pbody, _ := json.Marshal(PrepareRequest{SQL: sql})
		req = httptest.NewRequest(http.MethodPost, "/prepare", bytes.NewReader(pbody))
		w = httptest.NewRecorder()
		s.ServeHTTP(w, req)
		checkResponse(t, w, "prepare")
		if w.Code == http.StatusOK {
			var prep PrepareResponse
			if err := json.Unmarshal(w.Body.Bytes(), &prep); err != nil {
				t.Fatalf("prepare 200 with unparseable body %q: %v", w.Body.String(), err)
			}
			args := make([]string, prep.NumParams)
			for i := range args {
				args[i] = arg
			}
			ebody, _ := json.Marshal(ExecuteRequest{Session: prep.Session, Stmt: prep.Stmt, Args: args, Stream: stream})
			req = httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(ebody))
			w = httptest.NewRecorder()
			s.ServeHTTP(w, req)
			checkResponse(t, w, "execute")
		}
	})
}

// checkResponse asserts the serving contract for one fuzzed response: a
// known status class and a body that parses as JSON (every line, for
// ndjson streams).
func checkResponse(t *testing.T, w *httptest.ResponseRecorder, leg string) {
	t.Helper()
	switch w.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusUnprocessableEntity, http.StatusTooManyRequests,
		http.StatusGatewayTimeout, http.StatusServiceUnavailable:
	default:
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("%s: 500 (leaked panic?): %s", leg, w.Body.String())
		}
		t.Fatalf("%s: unexpected status %d: %s", leg, w.Code, w.Body.String())
	}
	body := strings.TrimSpace(w.Body.String())
	if body == "" {
		t.Fatalf("%s: empty response body (status %d)", leg, w.Code)
	}
	for _, line := range strings.Split(body, "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("%s: response line is not valid JSON: %q", leg, line)
		}
	}
}

// TestFuzzSeedsPass replays the seed corpus logic once under go test (the
// fuzz engine itself only runs with -fuzz).
func TestFuzzSeedsPass(t *testing.T) {
	s := fuzzHandler()
	for _, body := range []string{
		`{"sql":"SELECT COUNT(*) FROM t WHERE a = 1"}`,
		`{"sql":"SELECT a FROM t WHERE a = $1","args":["3"],"stream":true}`,
		`{not json`,
		``,
		`{"sql":123}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		checkResponse(t, w, "seed "+body)
	}
}
