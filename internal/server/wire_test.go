package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// awkwardCells are the cells the hand-built batch line must encode exactly
// as encoding/json does: escapes, HTML-safe characters, control bytes,
// invalid UTF-8, JavaScript line separators, multi-byte text, the empty
// string and the NULL rendering.
var awkwardCells = []string{
	`"`, `\`, `<`, `>`, `&`, "a\x00b", "\t\n\r\x1f", "\x7f",
	"\xff\xfe", "ok\xc3", "\u2028\u2029", "héllo", "日本", "",
	"NULL", "-0", "1.7976931348623157e+308", `a"b\c<d>e&f`, "</script>",
}

// encoderLine is what json.Encoder writes for one StreamBatch.
func encoderLine(t *testing.T, rows [][]string) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(StreamBatch{Rows: rows}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestAppendBatchLineMatchesEncoder: the hand-built batch line is
// byte-identical to json.Encoder's for random rows, awkward cells, empty
// and nil rows, and a nil row slice.
func TestAppendBatchLineMatchesEncoder(t *testing.T) {
	inputs := [][][]string{
		nil,
		{},
		{nil},
		{{}},
		{{"1", "2"}, nil, {}, {"3"}},
		{awkwardCells},
	}
	for _, c := range awkwardCells {
		inputs = append(inputs, [][]string{{c}, {"x", c, "y"}})
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		rows := make([][]string, rng.Intn(6))
		for r := range rows {
			rows[r] = make([]string, rng.Intn(4))
			for c := range rows[r] {
				if rng.Intn(3) == 0 {
					rows[r][c] = awkwardCells[rng.Intn(len(awkwardCells))]
					continue
				}
				b := make([]byte, rng.Intn(8))
				for i := range b {
					b[i] = byte(rng.Intn(256))
				}
				rows[r][c] = string(b)
			}
		}
		inputs = append(inputs, rows)
	}
	var buf []byte
	for _, rows := range inputs {
		buf = AppendBatchLine(buf[:0], rows)
		if want := encoderLine(t, rows); !bytes.Equal(buf, want) {
			t.Fatalf("rows %q:\n got %s\nwant %s", rows, buf, want)
		}
	}
}

// TestStreamedBatchLinesOnTheWire: a streamed query's batch lines, as the
// server writes them, are the lines json.Encoder would have written.
func TestStreamedBatchLinesOnTheWire(t *testing.T) {
	s := New(newTestEngine(t), Options{})
	defer s.Shutdown(context.Background())
	w := post(t, s, "/query", QueryRequest{SQL: "SELECT a, b FROM t WHERE a < 3", Stream: true})
	lines := strings.SplitAfter(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("want header, batches and trailer, got %q", w.Body.String())
	}
	for _, line := range lines[1 : len(lines)-1] {
		var batch StreamBatch
		if err := json.Unmarshal([]byte(line), &batch); err != nil || len(batch.Rows) == 0 {
			t.Fatalf("batch line %q: %v", line, err)
		}
		if want := encoderLine(t, batch.Rows); line != string(want) {
			t.Fatalf("batch line\n got %s\nwant %s", line, want)
		}
	}
}
