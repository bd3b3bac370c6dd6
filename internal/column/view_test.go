package column_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/storage"
)

// TestView checks the typed view against Raw row by row for all ten types,
// over every way a plain column's bytes come to be: New, Slice at odd row
// offsets, a storage round trip (NewFromBytes over the decoder's buffer),
// a deliberately misaligned NewFromBytes input, and an empty column.
func TestView(t *testing.T) {
	t.Run("int8", func(t *testing.T) { testView[int8](t, expr.Int8) })
	t.Run("int16", func(t *testing.T) { testView[int16](t, expr.Int16) })
	t.Run("int32", func(t *testing.T) { testView[int32](t, expr.Int32) })
	t.Run("int64", func(t *testing.T) { testView[int64](t, expr.Int64) })
	t.Run("uint8", func(t *testing.T) { testView[uint8](t, expr.Uint8) })
	t.Run("uint16", func(t *testing.T) { testView[uint16](t, expr.Uint16) })
	t.Run("uint32", func(t *testing.T) { testView[uint32](t, expr.Uint32) })
	t.Run("uint64", func(t *testing.T) { testView[uint64](t, expr.Uint64) })
	t.Run("float32", func(t *testing.T) { testView[float32](t, expr.Float32) })
	t.Run("float64", func(t *testing.T) { testView[float64](t, expr.Float64) })
}

func testView[T column.Elem](t *testing.T, typ expr.Type) {
	const n = 200
	rng := rand.New(rand.NewSource(int64(typ)))
	space := mach.NewAddrSpace()
	c := column.New(space, "c", typ, n)
	for i := 0; i < n; i++ {
		c.SetRaw(i, rng.Uint64()) // every bit pattern, NaNs included
	}
	checkView[T](t, "New", c)
	for _, off := range []int{1, 3, 63} {
		checkView[T](t, "Slice", c.Slice(off, n))
		checkView[T](t, "Slice", c.Slice(off, off+5))
	}

	tbl := column.NewTable(space, "t")
	tbl.MustAddColumn(c)
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	back, err := storage.ReadTable(&buf, mach.NewAddrSpace())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := back.Column("c")
	if err != nil {
		t.Fatal(err)
	}
	checkView[T](t, "ReadTable", rc)
	checkSame(t, "ReadTable", c, rc)

	in := make([]byte, len(c.Data())+1)[1:]
	copy(in, c.Data())
	mc := column.NewFromBytes(space, "m", typ, in)
	if typ.Size() > 1 && &mc.Data()[0] == &in[0] {
		t.Fatalf("NewFromBytes kept a buffer misaligned for %d-byte lanes", typ.Size())
	}
	checkView[T](t, "misaligned NewFromBytes", mc)
	checkSame(t, "misaligned NewFromBytes", c, mc)

	checkView[T](t, "empty New", column.New(space, "e", typ, 0))
	checkView[T](t, "empty NewFromBytes", column.NewFromBytes(space, "e", typ, nil))
}

// checkView compares View[T](c) with c.Raw row by row, bit for bit.
func checkView[T column.Elem](t *testing.T, what string, c *column.Column) {
	t.Helper()
	v := column.View[T](c)
	if len(v) != c.Len() {
		t.Fatalf("%s: view has %d rows, column %d", what, len(v), c.Len())
	}
	size := c.Type().Size()
	for i, x := range v {
		var got uint64
		switch f := any(x).(type) {
		case float32:
			got = uint64(math.Float32bits(f))
		case float64:
			got = math.Float64bits(f)
		default:
			got = uint64(x) & (^uint64(0) >> uint(64-8*size))
		}
		if want := c.Raw(i); got != want {
			t.Fatalf("%s: row %d: view %#x, Raw %#x", what, i, got, want)
		}
	}
}

// checkSame compares the stored bits of two columns row by row.
func checkSame(t *testing.T, what string, want, got *column.Column) {
	t.Helper()
	for i := 0; i < want.Len(); i++ {
		if got.Raw(i) != want.Raw(i) {
			t.Fatalf("%s: row %d: %#x, want %#x", what, i, got.Raw(i), want.Raw(i))
		}
	}
}
