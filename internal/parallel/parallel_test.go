package parallel

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

func makeChain(t *testing.T, n int, sel float64, seed int64) scan.Chain {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := mach.NewAddrSpace()
	var ch scan.Chain
	for j := 0; j < 2; j++ {
		vals := make([]int32, n)
		for i := range vals {
			if rng.Float64() < sel {
				vals[i] = 5
			} else {
				vals[i] = rng.Int31n(100) + 10
			}
		}
		col := column.FromInt32s(space, string(rune('a'+j)), vals)
		ch = append(ch, scan.Pred{Col: col, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 5)})
	}
	return ch
}

// scanned is a stream drained to the end.
type scanned struct {
	count     int
	positions []uint32 // table row ids
	perCore   []mach.Counters
}

// runStream drains a stream of the chain over fixed windows of morselRows
// rows as the batch pipeline consumes one: positions rebased to table row
// ids, the first morsel error fatal.
func runStream(ctx context.Context, params *mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores, morselRows int, want bool) (*scanned, error) {
	s, err := newScanStream(ctx, params, ch, build, cores, Windows(ch.Rows(), morselRows), want)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out := &scanned{}
	for {
		m, err := s.Next()
		if err == EOS {
			out.perCore = s.PerCore()
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.count += m.Res.Count
		for _, pos := range m.Res.Positions {
			out.positions = append(out.positions, pos+uint32(m.Begin))
		}
	}
}

// newScanStream starts a stream whose job only scans.
func newScanStream(ctx context.Context, params *mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores int, windows []Window, want bool) (*Stream[Morsel], error) {
	job, err := ScanJob(ch, build, want)
	if err != nil {
		return nil, err
	}
	return NewStream(ctx, params, job, cores, windows)
}

// scanSim runs a simulated stream to the end and applies the shared-socket
// model to its cores' counters.
func scanSim(t *testing.T, p mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores, morselRows int) CombinedModel {
	t.Helper()
	res, err := runStream(context.Background(), &p, ch, build, cores, morselRows, false)
	if err != nil {
		t.Fatal(err)
	}
	return Combine(p, res.perCore)
}

func TestParallelScanMatchesSequential(t *testing.T) {
	ch := makeChain(t, 100_000, 0.1, 1)
	want := scan.Reference(ch, true)
	for _, cores := range []int{1, 2, 4, 8} {
		for _, morsel := range []int{1000, 7777, 1_000_000} {
			res, err := runStream(context.Background(), simParams(), ch, scan.ImplAVX512Fused512.Build, cores, morsel, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.count != want.Count || len(res.positions) != len(want.Positions) {
				t.Fatalf("cores=%d morsel=%d: count %d, want %d", cores, morsel, res.count, want.Count)
			}
			for i := range want.Positions {
				if res.positions[i] != want.Positions[i] {
					t.Fatalf("cores=%d: position %d differs", cores, i)
				}
			}
		}
	}
}

func TestParallelComputeBoundScaling(t *testing.T) {
	// At 50% selectivity the SISD kernel is heavily compute-bound
	// (mispredictions), so doubling cores should roughly halve runtime.
	ch := makeChain(t, 400_000, 0.5, 2)
	p := mach.Default()
	r1 := scanSim(t, p, ch, scan.ImplSISD.Build, 1, 50_000)
	r4 := scanSim(t, p, ch, scan.ImplSISD.Build, 4, 50_000)
	speedup := r1.RuntimeMs / r4.RuntimeMs
	if speedup < 2.5 || speedup > 4.5 {
		t.Errorf("4-core compute-bound speedup %.2fx, want ~4x", speedup)
	}
}

func TestParallelBandwidthSaturation(t *testing.T) {
	// The fused scan at low selectivity is memory-bound: scaling stops at
	// SocketBandwidth / per-core bandwidth (~6.7 cores by default).
	ch := makeChain(t, 2_000_000, 0.0001, 3)
	p := mach.Default()
	r1 := scanSim(t, p, ch, scan.ImplAVX512Fused512.Build, 1, 100_000)
	r16 := scanSim(t, p, ch, scan.ImplAVX512Fused512.Build, 16, 100_000)
	maxSpeedup := p.SocketBandwidthGBs / p.StreamBandwidthGBs
	got := r1.RuntimeMs / r16.RuntimeMs
	if got > maxSpeedup*1.05 {
		t.Errorf("16-core memory-bound speedup %.2fx exceeds the %.2fx socket ceiling", got, maxSpeedup)
	}
	if got < maxSpeedup*0.8 {
		t.Errorf("16-core memory-bound speedup %.2fx, want close to the %.2fx ceiling", got, maxSpeedup)
	}
	if r16.AggregateGBs > p.SocketBandwidthGBs*1.01 {
		t.Errorf("achieved %.1f GB/s exceeds the socket's %.1f", r16.AggregateGBs, p.SocketBandwidthGBs)
	}
}

func TestParallelErrors(t *testing.T) {
	ch := makeChain(t, 100, 0.5, 4)
	p := mach.Default()
	ctx := context.Background()
	if _, err := runStream(ctx, &p, ch, scan.ImplSISD.Build, 0, 10, false); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := runStream(ctx, &p, scan.Chain{}, scan.ImplSISD.Build, 2, 10, false); err == nil {
		t.Error("empty chain accepted")
	}
	badBuild := func(scan.Chain) (scan.Kernel, error) { return nil, errBoom }
	if _, err := runStream(ctx, &p, ch, badBuild, 2, 10, false); err == nil {
		t.Error("builder error swallowed")
	}
}

type boomErr struct{}

func (boomErr) Error() string { return "boom" }

var errBoom = boomErr{}

func TestParallelPerCoreCounters(t *testing.T) {
	ch := makeChain(t, 50_000, 0.1, 5)
	res, err := runStream(context.Background(), simParams(), ch, scan.ImplAVX512Fused512.Build, 3, 5000, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.perCore) != 3 {
		t.Fatalf("per-core counters: %d", len(res.perCore))
	}
	var total uint64
	for _, c := range res.perCore {
		total += c.VecInstrs
	}
	if total == 0 {
		t.Error("no work recorded on any core")
	}
}

// simParams is the default machine calibration, by pointer: a scan given
// it simulates one CPU per worker.
func simParams() *mach.Params {
	p := mach.Default()
	return &p
}

// TestParallelScanWithoutModel: nil params build no worker CPUs, report no
// counters, and return the same rows.
func TestParallelScanWithoutModel(t *testing.T) {
	ch := makeChain(t, 50_000, 0.1, 6)
	native := func(sub scan.Chain) (scan.Kernel, error) { return scan.NewNative(sub) }
	res, err := runStream(context.Background(), nil, ch, native, 3, 5000, true)
	if err != nil {
		t.Fatal(err)
	}
	want := scan.Reference(ch, true)
	if res.count != want.Count || !slices.Equal(res.positions, want.Positions) {
		t.Fatalf("count %d, want %d", res.count, want.Count)
	}
	if res.perCore != nil {
		t.Errorf("perCore=%v, want no counters", res.perCore)
	}
}
