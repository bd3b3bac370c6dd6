package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"fusedscan/internal/server"
)

// decodeLine is the referee: what encoding/json decodes from a batch line.
func decodeLine(line []byte) ([][]string, error) {
	var b server.StreamBatch
	err := json.Unmarshal(line, &b)
	return b.Rows, err
}

// checkLine builds the batch line for rows and checks it twice: against
// json.Encoder's bytes, and the scanner's rows against encoding/json's.
func checkLine(t *testing.T, rows [][]string) {
	t.Helper()
	line := server.AppendBatchLine(nil, rows)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(server.StreamBatch{Rows: rows}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, want.Bytes()) {
		t.Fatalf("rows %q: built line\n %s\nencoder line\n %s", rows, line, want.Bytes())
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	got, err := parseBatchLine(line)
	if err != nil {
		t.Fatalf("line %s: %v", line, err)
	}
	ref, err := decodeLine(line)
	if err != nil {
		t.Fatalf("line %s: encoding/json: %v", line, err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("line %s:\n scanned %q\n decoded %q", line, got, ref)
	}
}

// fuzzRows shapes three cells into rows: shape's low bits pick the row
// width, higher bits add a nil row, an empty row or drop every row.
func fuzzRows(a, b, c string, shape uint8) [][]string {
	cells := []string{a, b, c}
	w := int(shape%3) + 1
	var rows [][]string
	for i := 0; i+w <= len(cells); i += w {
		rows = append(rows, cells[i:i+w])
	}
	switch {
	case shape&0x10 != 0:
		rows = append(rows, nil)
	case shape&0x20 != 0:
		rows = append([][]string{{}}, rows...)
	case shape&0x40 != 0:
		rows = [][]string{}
	case shape&0x80 != 0:
		rows = nil
	}
	return rows
}

// FuzzStreamBatchLine: for any cells, the hand-built batch line equals
// json.Encoder's and the client's one-pass scan equals encoding/json's
// decode; and for an arbitrary unescaped cell, whatever the scanner
// accepts encoding/json decodes to the same rows. The seed corpus runs
// in plain go test.
func FuzzStreamBatchLine(f *testing.F) {
	for _, s := range []struct {
		a, b, c string
		shape   uint8
	}{
		{"1", "2", "3", 0},
		{"NULL", "-0", "", 1},
		{`"`, `\`, `<>&`, 2},
		{"a\x00b", "\t\n", "\x7f", 0x10},
		{"\xff\xfe", "ok\xc3", "\u2028\u2029", 0x20},
		{"héllo", "日本", `\u0041`, 0x40},
		{"x", "y", "z", 0x80},
		{`a","b`, `]]}`, `\"`, 1},
	} {
		f.Add(s.a, s.b, s.c, s.shape)
	}
	f.Fuzz(func(t *testing.T, a, b, c string, shape uint8) {
		checkLine(t, fuzzRows(a, b, c, shape))
		raw := []byte(`{"rows":[["` + a + `"],[` + b + `]]}`)
		if got, err := parseBatchLine(raw); err == nil {
			ref, jerr := decodeLine(raw)
			if jerr != nil || !reflect.DeepEqual(got, ref) {
				t.Fatalf("line %s: scanned %q, encoding/json %q (%v)", raw, got, ref, jerr)
			}
		}
	})
}

// TestParseBatchLineRejectsMalformed: truncated or non-compact lines are
// errors, never partial rows.
func TestParseBatchLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		`{"rows":`, `{"rows":[`, `{"rows":[["a"]`, `{"rows":[["a"]]`, `{"rows":[["a]]}`,
		`{"rows":[["a"]]}x`, `{"rows":[["a" ]]}`, `{"rows":[["a"],]}`, `{"rows":[[1]]}`,
		`{"rows":[["\x"]]}`, "{\"rows\":[[\"a\x01\"]]}", `{"rows":nul}`, `{"rows":null`,
	} {
		if rows, err := parseBatchLine([]byte(line)); err == nil {
			t.Errorf("line %s: scanned %q, want an error", line, rows)
		}
	}
}

// TestLineReader: lines longer than the reader's buffer come back whole,
// a stream ending mid-line is io.ErrUnexpectedEOF and one ending between
// lines io.EOF.
func TestLineReader(t *testing.T) {
	long := strings.Repeat("x", 100)
	for _, tc := range []struct {
		in   string
		last error
	}{{long + "\n\nend\n", io.EOF}, {long + "\n\nend\npart", io.ErrUnexpectedEOF}} {
		lr := lineReader{r: bufio.NewReaderSize(strings.NewReader(tc.in), 16)}
		for _, want := range []string{long, "", "end"} {
			got, err := lr.next()
			if err != nil || string(got) != want {
				t.Fatalf("line = %q, %v; want %q", got, err, want)
			}
		}
		if _, err := lr.next(); err != tc.last {
			t.Fatalf("%q after the last line: err = %v, want %v", tc.in, err, tc.last)
		}
	}
}
