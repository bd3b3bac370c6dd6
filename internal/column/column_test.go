package column

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

func TestColumnSetGetAllTypes(t *testing.T) {
	space := mach.NewAddrSpace()
	for _, typ := range expr.AllTypes() {
		c := New(space, "c", typ, 10)
		var want expr.Value
		switch {
		case typ.Float():
			want = expr.NewFloat(typ, -2.5)
		case typ.Signed():
			want = expr.NewInt(typ, -42)
		default:
			want = expr.NewUint(typ, 200)
		}
		c.Set(3, want)
		got := c.Value(3)
		if !got.Compare(expr.Eq, want) {
			t.Errorf("%s: stored %v, loaded %v", typ, want, got)
		}
		// Unset rows are zero.
		zero := c.Value(0)
		switch {
		case typ.Float():
			if zero.Float() != 0 {
				t.Errorf("%s zero value %v", typ, zero)
			}
		case typ.Signed():
			if zero.Int() != 0 {
				t.Errorf("%s zero value %v", typ, zero)
			}
		default:
			if zero.Uint() != 0 {
				t.Errorf("%s zero value %v", typ, zero)
			}
		}
	}
}

func TestColumnTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on type mismatch")
		}
	}()
	c := New(mach.NewAddrSpace(), "c", expr.Int32, 1)
	c.Set(0, expr.NewInt(expr.Int64, 1))
}

func TestColumnAddresses(t *testing.T) {
	space := mach.NewAddrSpace()
	a := New(space, "a", expr.Int32, 100)
	b := New(space, "b", expr.Int64, 100)
	if a.Base() == 0 || b.Base() == 0 {
		t.Fatal("zero base")
	}
	if b.Base() < a.Base()+uint64(100*4) {
		t.Fatal("columns overlap in address space")
	}
	if a.Addr(10) != a.Base()+40 {
		t.Fatalf("Addr(10) = %d", a.Addr(10))
	}
}

func TestFromSliceConstructors(t *testing.T) {
	space := mach.NewAddrSpace()
	ci := FromInt32s(space, "i", []int32{-1, 0, 7})
	if ci.Value(0).Int() != -1 || ci.Value(2).Int() != 7 {
		t.Error("FromInt32s values wrong")
	}
	cl := FromInt64s(space, "l", []int64{math.MinInt64, math.MaxInt64})
	if cl.Value(0).Int() != math.MinInt64 || cl.Value(1).Int() != math.MaxInt64 {
		t.Error("FromInt64s values wrong")
	}
	cf := FromFloat64s(space, "f", []float64{1.25, -0.5})
	if cf.Value(1).Float() != -0.5 {
		t.Error("FromFloat64s values wrong")
	}
	cg := FromFloat32s(space, "g", []float32{2.5})
	if cg.Value(0).Float() != 2.5 {
		t.Error("FromFloat32s values wrong")
	}
}

func TestStoredBitsRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		space := mach.NewAddrSpace()
		c := New(space, "c", expr.Int32, 1)
		v := expr.NewInt(expr.Int32, int64(int32(raw)))
		c.Set(0, v)
		return c.Raw(0) == StoredBits(v)&0xffffffff && c.Raw(0) == uint64(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTableAddAndLookup(t *testing.T) {
	space := mach.NewAddrSpace()
	tbl := NewTable(space, "t")
	if tbl.Rows() != 0 {
		t.Fatal("empty table has rows")
	}
	a := FromInt32s(space, "a", make([]int32, 5))
	if err := tbl.AddColumn(a); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn(FromInt32s(space, "a", make([]int32, 5))); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tbl.AddColumn(FromInt32s(space, "b", make([]int32, 6))); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := tbl.Column("a"); err != nil {
		t.Error(err)
	}
	if _, err := tbl.Column("zzz"); err == nil {
		t.Error("missing column lookup succeeded")
	}
	if got := tbl.ColumnNames(); len(got) != 1 || got[0] != "a" {
		t.Errorf("ColumnNames = %v", got)
	}
}

func TestTableChunks(t *testing.T) {
	space := mach.NewAddrSpace()
	tbl := NewTable(space, "t")
	tbl.MustAddColumn(FromInt32s(space, "a", make([]int32, 10)))
	chunks := tbl.Chunks(4)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %v", chunks)
	}
	total := 0
	for _, ch := range chunks {
		total += ch.Rows()
	}
	if total != 10 {
		t.Fatalf("chunk rows sum to %d", total)
	}
	if chunks[2].Begin != 8 || chunks[2].End != 10 {
		t.Fatalf("last chunk = %+v", chunks[2])
	}
}

func TestStatsMinMaxAndSelectivity(t *testing.T) {
	space := mach.NewAddrSpace()
	vals := make([]int32, 1000)
	for i := range vals {
		vals[i] = int32(i % 100) // uniform 0..99
	}
	c := FromInt32s(space, "c", vals)
	st := ComputeStats(c)
	if st.Min.Int() != 0 || st.Max.Int() != 99 {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	selLt50 := st.EstimateSelectivity(expr.Lt, expr.NewInt(expr.Int32, 50))
	if selLt50 < 0.4 || selLt50 > 0.6 {
		t.Errorf("selectivity of < 50 estimated %v", selLt50)
	}
	selEq := st.EstimateSelectivity(expr.Eq, expr.NewInt(expr.Int32, 7))
	if selEq > 0.05 {
		t.Errorf("selectivity of = 7 estimated %v", selEq)
	}
	// Unseen value: clamped above zero.
	selNone := st.EstimateSelectivity(expr.Eq, expr.NewInt(expr.Int32, -12345))
	if selNone <= 0 {
		t.Errorf("unseen selectivity %v", selNone)
	}
}

func TestDictEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	space := mach.NewAddrSpace()
	vals := make([]int32, 2000)
	for i := range vals {
		vals[i] = int32(rng.Intn(37)) - 18
	}
	c := FromInt32s(space, "c", vals)
	d := Encode(space, c)
	if d.DictSize() > 37 {
		t.Fatalf("dict size %d", d.DictSize())
	}
	if d.CodeBits() > 6 {
		t.Fatalf("code bits %d for %d distinct values", d.CodeBits(), d.DictSize())
	}
	for i := range vals {
		if got := d.Value(i); !got.Compare(expr.Eq, c.Value(i)) {
			t.Fatalf("row %d: decoded %v, want %v", i, got, c.Value(i))
		}
	}
	// Packed representation is genuinely smaller.
	if d.PackedBytes() >= len(c.Data()) {
		t.Errorf("packed %d bytes, plain %d", d.PackedBytes(), len(c.Data()))
	}
}

func TestDictCodePredicate(t *testing.T) {
	space := mach.NewAddrSpace()
	c := FromInt32s(space, "c", []int32{10, 20, 30, 20, 10, 40})
	d := Encode(space, c)

	// Equality with a present value.
	codes, err := d.CodePredicate(expr.Eq, expr.NewInt(expr.Int32, 20))
	if err != nil || codes.Empty() || !codes.Match(d.Code(1)) {
		t.Fatalf("eq present: %+v %v", codes, err)
	}
	if d.Value(1).Int() != 20 {
		t.Fatal("sanity")
	}
	// Equality with an absent value: no row can match.
	codes, err = d.CodePredicate(expr.Eq, expr.NewInt(expr.Int32, 25))
	if err != nil || !codes.Empty() {
		t.Fatal("eq absent should be unsatisfiable")
	}
	// Range rewrites must agree with direct evaluation for every op and
	// probe value, including absent ones.
	var probes []expr.Value
	for probe := int64(5); probe <= 45; probe += 5 {
		probes = append(probes, expr.NewInt(expr.Int32, probe))
	}
	checkCodePredicate(t, c, d, probes)
	// A float dictionary holding NaN and both zeros keeps IEEE semantics:
	// NaN sorts last but satisfies only <>, and -0 and +0 hold two codes
	// that = 0 must both select.
	negZero := math.Copysign(0, -1)
	f := FromFloat64s(space, "f", []float64{math.NaN(), 1, 2, negZero, 0})
	fd := Encode(space, f)
	probes = nil
	for _, x := range []float64{math.NaN(), -1, negZero, 0, 0.5, 1, 1.5, 2, 3} {
		probes = append(probes, expr.NewFloat(expr.Float64, x))
	}
	checkCodePredicate(t, f, fd, probes)
	gt1, _ := fd.CodePredicate(expr.Gt, expr.NewFloat(expr.Float64, 1))
	eq0, _ := fd.CodePredicate(expr.Eq, expr.NewFloat(expr.Float64, 0))
	ne0, _ := fd.CodePredicate(expr.Ne, expr.NewFloat(expr.Float64, 0))
	for i, want := range []struct{ gt1, eq0, ne0 bool }{
		{false, false, true}, {false, false, true}, {true, false, true}, {false, true, false}, {false, true, false},
	} {
		code := fd.Code(i)
		if gt1.Match(code) != want.gt1 || eq0.Match(code) != want.eq0 || ne0.Match(code) != want.ne0 {
			t.Errorf("row %d (%s): f > 1 %v, f = 0 %v, f <> 0 %v; want %+v",
				i, fd.Value(i), gt1.Match(code), eq0.Match(code), ne0.Match(code), want)
		}
	}
	// Type mismatch errors.
	if _, err := d.CodePredicate(expr.Eq, expr.NewInt(expr.Int64, 20)); err == nil {
		t.Error("type mismatch accepted")
	}
}

// checkCodePredicate requires every operator's code range to select
// exactly the rows direct evaluation does, for each probe value.
func checkCodePredicate(t *testing.T, c *Column, d *DictColumn, probes []expr.Value) {
	t.Helper()
	for _, op := range expr.AllCmpOps() {
		for _, v := range probes {
			codes, err := d.CodePredicate(op, v)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < d.Len(); i++ {
				want := c.Value(i).Compare(op, v)
				if got := codes.Match(d.Code(i)); got != want {
					t.Fatalf("op %s probe %s row %d (%s): rewrite %v, direct %v", op, v, i, c.Value(i), got, want)
				}
			}
		}
	}
}

func TestDictUnpackCodes(t *testing.T) {
	space := mach.NewAddrSpace()
	c := FromInt32s(space, "c", []int32{3, 1, 2, 1, 3})
	d := Encode(space, c)
	u := d.UnpackCodes(space, 1, 4)
	if u.Len() != 3 {
		t.Fatalf("unpacked %d rows", u.Len())
	}
	for i := 0; i < 3; i++ {
		if uint32(u.Raw(i)) != d.Code(i+1) {
			t.Fatalf("row %d: %d vs %d", i, u.Raw(i), d.Code(i+1))
		}
	}
}

// TestStatsExactBoundsOnPeriodicData pins the min/max bounds to a full
// scan: a strided sample whose step is a multiple of the data's period
// (14336/1024 = 14, values i % 7) would see only zeros, and the
// optimizer would then "prove" predicates like c = 5 unsatisfiable.
func TestStatsExactBoundsOnPeriodicData(t *testing.T) {
	space := mach.NewAddrSpace()
	vals := make([]int32, 14336)
	for i := range vals {
		vals[i] = int32(i % 7)
	}
	c := FromInt32s(space, "c", vals)
	st := ComputeStats(c)
	if st.Min.Int() != 0 || st.Max.Int() != 6 {
		t.Fatalf("min/max = %v/%v, want exact bounds 0/6", st.Min, st.Max)
	}
	if st.NullFraction != 0 {
		t.Errorf("null fraction = %v, want 0", st.NullFraction)
	}
}
