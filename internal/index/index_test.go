package index

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
)

// intColumn builds an int32 column from vals; nulls marks NULL rows.
func intColumn(t *testing.T, vals []int64, nulls []int) *column.Column {
	t.Helper()
	space := mach.NewAddrSpace()
	c := column.New(space, "v", expr.Int32, len(vals))
	for i, v := range vals {
		c.Set(i, expr.NewInt(expr.Int32, v))
	}
	for _, i := range nulls {
		c.SetNull(i)
	}
	return c
}

// referenceProbe computes the expected ascending match positions by
// scalar evaluation, skipping NULL (and NaN) rows.
func referenceProbe(src Source, op expr.CmpOp, v expr.Value) []uint32 {
	var out []uint32
	nl, _ := src.(interface{ Null(int) bool })
	for i := 0; i < src.Len(); i++ {
		if nl != nil && nl.Null(i) {
			continue
		}
		if src.Value(i).Compare(op, v) {
			out = append(out, uint32(i))
		}
	}
	return out
}

func TestBuildProbeSemantics(t *testing.T) {
	vals := []int64{5, 3, 9, 3, 7, 3, 1, 9, 0, 4}
	nulls := []int{2, 8} // the 9 at row 2 and the 0 at row 8 are NULL
	c := intColumn(t, vals, nulls)
	ix, err := Build("t", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Entries(), len(vals)-len(nulls); got != want {
		t.Fatalf("Entries = %d, want %d (NULL rows must carry no entry)", got, want)
	}
	if ix.Rows() != len(vals) {
		t.Fatalf("Rows = %d, want %d", ix.Rows(), len(vals))
	}
	for _, op := range []expr.CmpOp{expr.Eq, expr.Lt, expr.Le, expr.Gt, expr.Ge} {
		for needle := int64(-1); needle <= 10; needle++ {
			v := expr.NewInt(expr.Int32, needle)
			got, err := ix.Probe(op, v)
			if err != nil {
				t.Fatalf("Probe(%s, %d): %v", op, needle, err)
			}
			want := referenceProbe(c, op, v)
			if !equalU32(got, want) {
				t.Fatalf("Probe(%s, %d) = %v, want %v", op, needle, got, want)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("Probe(%s, %d) positions not ascending: %v", op, needle, got)
			}
			k, ok := ix.CountRange(op, v)
			if !ok || k != len(want) {
				t.Fatalf("CountRange(%s, %d) = (%d, %v), want (%d, true)", op, needle, k, ok, len(want))
			}
		}
	}
}

func TestDuplicateKeysPositionOrdered(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i % 7) // heavy duplication
	}
	c := intColumn(t, vals, nil)
	ix, err := Build("t", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := ix.Probe(expr.Eq, expr.NewInt(expr.Int32, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 143 { // rows 3, 10, 17, ... < 1000
		t.Fatalf("Eq probe over duplicates returned %d positions", len(pos))
	}
	for i := 1; i < len(pos); i++ {
		if pos[i-1] >= pos[i] {
			t.Fatalf("duplicate-key positions out of order at %d: %v", i, pos[i-3:i+1])
		}
	}
}

func TestFloatNaNAndSignedZero(t *testing.T) {
	space := mach.NewAddrSpace()
	c := column.New(space, "f", expr.Float64, 6)
	fv := []float64{1.5, math.NaN(), math.Copysign(0, -1), 0.0, -2.25, math.NaN()}
	for i, f := range fv {
		c.Set(i, expr.NewFloat(expr.Float64, f))
	}
	ix, err := Build("t", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Entries() != 4 {
		t.Fatalf("Entries = %d, want 4 (NaN rows excluded)", ix.Entries())
	}
	// -0.0 == +0.0: an equality probe for zero must find both rows.
	pos, err := ix.Probe(expr.Eq, expr.NewFloat(expr.Float64, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !equalU32(pos, []uint32{2, 3}) {
		t.Fatalf("Probe(Eq, 0) = %v, want [2 3] (signed zeros compare equal)", pos)
	}
	// A NaN needle matches nothing, with no error.
	pos, err = ix.Probe(expr.Lt, expr.NewFloat(expr.Float64, math.NaN()))
	if err != nil || pos != nil {
		t.Fatalf("Probe(Lt, NaN) = (%v, %v), want (nil, nil)", pos, err)
	}
	if k, ok := ix.CountRange(expr.Ge, expr.NewFloat(expr.Float64, math.NaN())); !ok || k != 0 {
		t.Fatalf("CountRange(Ge, NaN) = (%d, %v), want (0, true)", k, ok)
	}
}

func TestProbeRejections(t *testing.T) {
	c := intColumn(t, []int64{1, 2, 3}, nil)
	ix, err := Build("t", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CanServe(expr.Ne) {
		t.Fatal("CanServe(Ne) = true; <> must stay on the scan path")
	}
	if _, err := ix.Probe(expr.Ne, expr.NewInt(expr.Int32, 1)); err == nil {
		t.Fatal("Probe(Ne) succeeded, want error")
	}
	if _, err := ix.Probe(expr.Eq, expr.NewInt(expr.Int64, 1)); err == nil {
		t.Fatal("Probe with mismatched literal type succeeded, want error")
	}
	if _, ok := ix.CountRange(expr.Eq, expr.NewInt(expr.Int64, 1)); ok {
		t.Fatal("CountRange with mismatched literal type reported ok")
	}
}

func TestDictColumnSource(t *testing.T) {
	space := mach.NewAddrSpace()
	plain := column.New(space, "d", expr.Int32, 256)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 256; i++ {
		plain.Set(i, expr.NewInt(expr.Int32, int64(rng.Intn(16))))
	}
	dict := column.Encode(space, plain)
	ix, err := Build("t", dict, nil)
	if err != nil {
		t.Fatal(err)
	}
	for needle := int64(0); needle < 16; needle++ {
		v := expr.NewInt(expr.Int32, needle)
		got, err := ix.Probe(expr.Le, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceProbe(dict, expr.Le, v); !equalU32(got, want) {
			t.Fatalf("dict Probe(Le, %d) = %d positions, want %d", needle, len(got), len(want))
		}
	}
}

func TestPersistRoundTrip(t *testing.T) {
	vals := []int64{5, 3, 9, 3, 7, 3, 1, 9, 0, 4}
	c := intColumn(t, vals, []int{4})
	ix, err := Build("t", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	space := mach.NewAddrSpace()
	enc, err := ix.EncodeTable(space, "idx:t:v")
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTable(enc, "t", "v", len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []expr.CmpOp{expr.Eq, expr.Lt, expr.Ge} {
		v := expr.NewInt(expr.Int32, 3)
		a, _ := ix.Probe(op, v)
		b, _ := back.Probe(op, v)
		if !equalU32(a, b) {
			t.Fatalf("round-trip Probe(%s) mismatch: %v vs %v", op, a, b)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	c := intColumn(t, []int64{5, 3, 9, 1}, nil)
	ix, err := Build("t", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	space := mach.NewAddrSpace()

	encode := func() *column.Table {
		enc, err := ix.EncodeTable(space, "idx:t:v")
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	// Stale: the table grew or shrank since the snapshot.
	if _, err := DecodeTable(encode(), "t", "v", 3); err == nil {
		t.Fatal("DecodeTable accepted a snapshot larger than the table")
	}

	// Position out of bounds.
	enc := encode()
	pc, _ := enc.Column("pos")
	pc.SetRaw(0, 99)
	if _, err := DecodeTable(enc, "t", "v", 4); err == nil {
		t.Fatal("DecodeTable accepted an out-of-range position")
	}

	// Duplicate position.
	enc = encode()
	pc, _ = enc.Column("pos")
	pc.SetRaw(1, pc.Raw(0))
	if _, err := DecodeTable(enc, "t", "v", 4); err == nil {
		t.Fatal("DecodeTable accepted a duplicate position")
	}

	// Keys out of value order.
	enc = encode()
	kc, _ := enc.Column("key")
	k0, k3 := kc.Raw(0), kc.Raw(3)
	kc.SetRaw(0, k3)
	kc.SetRaw(3, k0)
	if _, err := DecodeTable(enc, "t", "v", 4); err == nil {
		t.Fatal("DecodeTable accepted out-of-order keys")
	}
}

// TestDecodeRejectsNaNKey: Build never writes a NaN key, so a snapshot
// holding one is corrupt wherever the NaN sits — the value order puts it
// above every number, so only the order check cannot be what rejects it.
// Signed zeros, which Build does write, still decode.
func TestDecodeRejectsNaNKey(t *testing.T) {
	space := mach.NewAddrSpace()
	c := column.New(space, "f", expr.Float64, 5)
	for i, f := range []float64{1.5, -2.25, math.Copysign(0, -1), 3, 0} {
		c.Set(i, expr.NewFloat(expr.Float64, f))
	}
	ix, err := Build("t", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ix.EncodeTable(space, "idx:t:f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(enc, "t", "f", 5); err != nil {
		t.Fatalf("DecodeTable rejected a snapshot with both signed zeros: %v", err)
	}
	for _, at := range []int{1, 4} { // between numbers, and last
		enc, err := ix.EncodeTable(space, "idx:t:f")
		if err != nil {
			t.Fatal(err)
		}
		kc, _ := enc.Column("key")
		kc.Set(at, expr.NewFloat(expr.Float64, math.NaN()))
		if _, err := DecodeTable(enc, "t", "f", 5); err == nil {
			t.Fatalf("DecodeTable accepted a NaN key at entry %d", at)
		}
	}
}

func TestBuildFaultSiteAndCharge(t *testing.T) {
	c := intColumn(t, []int64{1, 2, 3}, nil)

	faultinject.Arm(faultinject.SiteIndexBuildAlloc, 1, faultinject.ModeError)
	defer faultinject.Reset()
	if _, err := Build("t", c, nil); err == nil {
		t.Fatal("Build survived an armed index.build.alloc fault")
	}
	faultinject.Reset()

	budget := errors.New("over budget")
	var charged int64
	_, err := Build("t", c, func(n int64) error { charged = n; return budget })
	if !errors.Is(err, budget) {
		t.Fatalf("Build with failing charge: err = %v, want wrapped budget error", err)
	}
	if want := int64(3 * (entryBytes + sortScratchBytes)); charged != want {
		t.Fatalf("charge saw %d bytes, want %d", charged, want)
	}

	faultinject.Arm(faultinject.SiteIndexProbe, 1, faultinject.ModeError)
	ix, err := Build("t", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Probe(expr.Eq, expr.NewInt(expr.Int32, 2)); err == nil {
		t.Fatal("Probe survived an armed index.probe fault")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
