package column

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// statsValues returns n values of type t: the type's extremes, zero, long
// duplicate runs and small random values, plus NaN, -0 and ±Inf for the
// float types.
func statsValues(t expr.Type, n int, rng *rand.Rand) []expr.Value {
	var special []expr.Value
	var random func() expr.Value
	switch {
	case t.Float():
		maxF := math.MaxFloat64
		if t == expr.Float32 {
			maxF = math.MaxFloat32
		}
		for _, f := range []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), maxF, -maxF, math.SmallestNonzeroFloat64, math.NaN()} {
			special = append(special, expr.NewFloat(t, f))
		}
		random = func() expr.Value { return expr.NewFloat(t, float64(rng.Intn(41)-20)/4) }
	case t.Signed():
		bits := uint(8 * t.Size())
		special = []expr.Value{expr.NewInt(t, -1<<(bits-1)), expr.NewInt(t, 1<<(bits-1)-1), expr.NewInt(t, 0), expr.NewInt(t, -1)}
		random = func() expr.Value { return expr.NewInt(t, int64(rng.Intn(41)-20)) }
	default:
		special = []expr.Value{expr.NewUint(t, 0), expr.NewUint(t, math.MaxUint64), expr.NewUint(t, 1)}
		random = func() expr.Value { return expr.NewUint(t, uint64(rng.Intn(41))) }
	}
	vals := make([]expr.Value, 0, n)
	for len(vals) < n {
		switch r := rng.Intn(10); {
		case r == 0:
			vals = append(vals, special[rng.Intn(len(special))])
		case r == 1:
			// A duplicate run.
			v := random()
			for k := 0; k < 7 && len(vals) < n; k++ {
				vals = append(vals, v)
			}
		default:
			vals = append(vals, random())
		}
	}
	return vals
}

// neighbours returns v and the values just below and above it.
func neighbours(v expr.Value) []expr.Value {
	switch {
	case v.Type == expr.Float32:
		f := float32(v.Float())
		return []expr.Value{v,
			expr.NewFloat(v.Type, float64(math.Nextafter32(f, float32(math.Inf(-1))))),
			expr.NewFloat(v.Type, float64(math.Nextafter32(f, float32(math.Inf(1)))))}
	case v.Type.Float():
		f := v.Float()
		return []expr.Value{v, expr.NewFloat(v.Type, math.Nextafter(f, math.Inf(-1))), expr.NewFloat(v.Type, math.Nextafter(f, math.Inf(1)))}
	case v.Type.Signed():
		return []expr.Value{v, expr.NewInt(v.Type, v.Int()-1), expr.NewInt(v.Type, v.Int()+1)}
	default:
		return []expr.Value{v, expr.NewUint(v.Type, v.Uint()-1), expr.NewUint(v.Type, v.Uint()+1)}
	}
}

// checkEstimates compares every estimate against a linear Value.Compare
// count over the rows ComputeStats samples (every step-th row, NULLs
// skipped, at most sampleCap of them). Needles are every sampled value
// and its neighbours, which lie between samples or outside the sample.
func checkEstimates(t *testing.T, c *Column) {
	t.Helper()
	st := ComputeStats(c)
	n := c.Len()
	step := max(n/sampleCap, 1)
	var sample []expr.Value
	for i := 0; i < n && len(sample) < sampleCap; i += step {
		if !c.Null(i) {
			sample = append(sample, c.Value(i))
		}
	}
	if got := len(st.SampleSorted) + st.SampleNaN; got != len(sample) {
		t.Fatalf("%s: sample holds %d values, want %d", c.Type(), got, len(sample))
	}
	needles := []expr.Value{}
	if c.Type().Float() {
		for _, f := range []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0} {
			needles = append(needles, expr.NewFloat(c.Type(), f))
		}
	}
	seen := map[uint64]bool{}
	for _, v := range sample {
		if !seen[v.Bits] {
			seen[v.Bits] = true
			needles = append(needles, neighbours(v)...)
		}
	}
	for _, op := range []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge} {
		for _, needle := range needles {
			match := 0
			for _, s := range sample {
				if s.Compare(op, needle) {
					match++
				}
			}
			if got := st.countMatches(op, needle); got != match {
				t.Fatalf("%s: count of col %s %s = %d, linear count %d", c.Type(), op, needle, got, match)
			}
			want := float64(match) / float64(len(sample))
			if match == 0 {
				want = 0.5 / float64(len(sample))
			}
			if got := st.EstimateSelectivity(op, needle); got != want {
				t.Fatalf("%s: estimate of col %s %s = %v, want %v", c.Type(), op, needle, got, want)
			}
		}
	}
}

// TestEstimateSelectivityMatchesLinearCount: the binary-search estimate
// counts exactly what a linear walk of the sample with Value.Compare
// counts, for all ten types and six operators, with NaN, ±0, ±Inf, the
// types' extremes and duplicate runs in the sample. The larger columns
// sample every other row and hit the sample cap.
func TestEstimateSelectivityMatchesLinearCount(t *testing.T) {
	space := mach.NewAddrSpace()
	rng := rand.New(rand.NewSource(3))
	for _, typ := range expr.AllTypes() {
		for _, n := range []int{700, 2600} {
			vals := statsValues(typ, n, rng)
			c := New(space, "c", typ, n)
			for i, v := range vals {
				c.Set(i, v)
				if i%13 == 5 {
					c.SetNull(i)
				}
			}
			checkEstimates(t, c)
		}
	}
	for _, typ := range []expr.Type{expr.Float32, expr.Float64} {
		c := New(space, "nan", typ, 50)
		for i := range 50 {
			c.Set(i, expr.NewFloat(typ, math.NaN()))
		}
		checkEstimates(t, c)
		if st := ComputeStats(c); len(st.SampleSorted) != 0 || st.SampleNaN != 50 {
			t.Fatalf("all-NaN %s column: %d sorted, %d NaN samples", typ, len(st.SampleSorted), st.SampleNaN)
		}
	}
}

// TestColumnStatsCached: Stats computes once per column, also when
// several goroutines ask at once, and returns the same statistics
// ComputeStats does.
func TestColumnStatsCached(t *testing.T) {
	c := FromInt32s(mach.NewAddrSpace(), "c", []int32{3, 1, 2, 2})
	// Each caller keeps the sample it saw; a recomputation would hand
	// later callers a new backing array.
	got := make([][]expr.Value, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Stats().SampleSorted
		}()
	}
	wg.Wait()
	st := c.Stats()
	for _, g := range got {
		if &g[0] != &st.SampleSorted[0] {
			t.Fatal("Stats computed the statistics more than once")
		}
	}
	want := ComputeStats(c)
	if st.Min != want.Min || st.Max != want.Max || len(st.SampleSorted) != len(want.SampleSorted) {
		t.Fatalf("Stats = %+v, ComputeStats = %+v", *st, want)
	}
}
