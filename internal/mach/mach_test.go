package mach

import (
	"math/rand"
	"testing"

	"fusedscan/internal/vec"
)

func TestParamsCyclesPerDRAMLine(t *testing.T) {
	p := Default()
	// 12 GB/s at 2.5 GHz = 4.8 bytes/cycle; 64-byte line = 13.33 cycles.
	got := p.CyclesPerDRAMLine()
	if got < 13.2 || got > 13.5 {
		t.Fatalf("CyclesPerDRAMLine = %v", got)
	}
}

func TestVecCostAVX2Emulation(t *testing.T) {
	p := Default()
	c512 := p.VecCost(vec.IsaAVX512, vec.OpCompress, vec.W128)
	c2 := p.VecCost(vec.IsaAVX2, vec.OpCompress, vec.W128)
	if c2 <= c512 {
		t.Errorf("AVX2 compress emulation (%v) should cost more than AVX-512 compress (%v)", c2, c512)
	}
	// The 512-bit surcharge orders compress costs 128 <= 256 < 512.
	w128 := p.VecCost(vec.IsaAVX512, vec.OpCompress, vec.W128)
	w256 := p.VecCost(vec.IsaAVX512, vec.OpCompress, vec.W256)
	w512 := p.VecCost(vec.IsaAVX512, vec.OpCompress, vec.W512)
	if !(w128 <= w256 && w256 < w512) {
		t.Errorf("compress costs not ordered: %v %v %v", w128, w256, w512)
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	for _, taken := range []bool{true, false} {
		bp := NewBranchPredictor(12, 8)
		misp := 0
		for i := 0; i < 10000; i++ {
			if bp.Record(1, taken) != taken {
				misp++
			}
		}
		if misp > 200 {
			t.Errorf("constant-outcome branch (taken=%v) mispredicted %d/10000 times", taken, misp)
		}
	}
}

func TestBranchPredictorLearnsPattern(t *testing.T) {
	// A short repeating pattern should be captured by the history bits.
	bp := NewBranchPredictor(12, 8)
	pattern := []bool{true, true, false, true}
	misp := 0
	for i := 0; i < 20000; i++ {
		if bp.Record(3, pattern[i%len(pattern)]) != pattern[i%len(pattern)] {
			misp++
		}
	}
	if misp > 1000 {
		t.Errorf("periodic branch mispredicted %d/20000 times", misp)
	}
}

func TestBranchPredictorRandomRatesAreSelectivityShaped(t *testing.T) {
	// Misprediction rate must rise toward 50% match probability and fall
	// at the extremes — the Figure 1 effect.
	rate := func(p float64) float64 {
		bp := NewBranchPredictor(12, 8)
		rng := rand.New(rand.NewSource(42))
		misp := 0
		const n = 50000
		for i := 0; i < n; i++ {
			taken := rng.Float64() < p
			if bp.Record(7, taken) != taken {
				misp++
			}
		}
		return float64(misp) / n
	}
	r0 := rate(0.0001)
	r10 := rate(0.10)
	r50 := rate(0.50)
	r100 := rate(0.9999)
	if !(r0 < r10 && r10 < r50) {
		t.Errorf("misprediction rates not increasing toward 50%%: %v %v %v", r0, r10, r50)
	}
	if !(r100 < r10) {
		t.Errorf("misprediction rate at ~100%% (%v) should drop below 10%% selectivity (%v)", r100, r10)
	}
	if r50 < 0.35 {
		t.Errorf("misprediction rate at 50%% too low: %v", r50)
	}
}

func TestCacheHitAfterAccess(t *testing.T) {
	c := newCache(32<<10, 8, 64)
	if hit, _ := c.access(100); hit {
		t.Fatal("cold access reported hit")
	}
	if hit, _ := c.access(100); !hit {
		t.Fatal("second access missed")
	}
	if !c.contains(100) {
		t.Fatal("contains() false after access")
	}
	c.flush()
	if c.contains(100) {
		t.Fatal("contains() true after flush")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 sets x 2 ways, line 64: lines with the same parity map to one set.
	c := newCache(4*64, 2, 64)
	c.access(0)
	c.access(2)
	c.access(4) // evicts 0 (LRU)
	if c.contains(0) {
		t.Fatal("LRU line not evicted")
	}
	if !c.contains(2) || !c.contains(4) {
		t.Fatal("recently used lines evicted")
	}
	// Touch 2, then insert 6: 4 must go, 2 must stay.
	c.access(2)
	c.access(6)
	if !c.contains(2) || c.contains(4) {
		t.Fatal("LRU order not maintained")
	}
}

func TestHierarchyLevels(t *testing.T) {
	p := Default()
	h := newHierarchy(&p)
	if lvl := h.access(42); lvl != LevelMem {
		t.Fatalf("cold access level %v", lvl)
	}
	if lvl := h.access(42); lvl != LevelL1 {
		t.Fatalf("warm access level %v", lvl)
	}
	// Evict from L1 by streaming more than 32 KB of distinct lines;
	// the line must still hit in L2 or L3.
	for i := uint64(1000); i < 1000+4096; i++ {
		h.access(i)
	}
	lvl := h.access(42)
	if lvl != LevelL2 && lvl != LevelL3 {
		t.Fatalf("after L1 eviction, level %v", lvl)
	}
}

func TestPrefetchTrackerUselessAccounting(t *testing.T) {
	tr := newPrefetchTracker(4)
	tr.insert(1)
	tr.insert(2)
	if !tr.demand(1) {
		t.Fatal("demand on outstanding prefetch not covered")
	}
	if tr.demand(99) {
		t.Fatal("unknown line reported covered")
	}
	// Overflow the window: 2 (unused) is retired as useless, 1 was used.
	tr.insert(3)
	tr.insert(4)
	tr.insert(5)
	tr.insert(6) // retires 1 (used), then next insert retires 2 (unused)
	tr.insert(7)
	tr.drain()
	// Lines 1..7 were inserted and only line 1 demanded: 7 issued, 6 useless.
	if tr.useless != 6 || tr.issued != 7 {
		t.Fatalf("useless = %d, issued = %d; want 6, 7", tr.useless, tr.issued)
	}
}

func TestCPUStreamReadCountsLinesOnce(t *testing.T) {
	cpu := New(Default())
	s := cpu.NewStream()
	base := uint64(1 << 20)
	for i := 0; i < 64; i++ { // 64 x 4-byte reads = 4 lines
		cpu.StreamRead(s, base+uint64(4*i), 4)
	}
	c := cpu.Counters()
	if c.DemandDRAMLines != 4 {
		t.Fatalf("DRAM lines = %d, want 4", c.DemandDRAMLines)
	}
	if c.ExposedLatencyCy != 0 {
		t.Fatal("stream reads must not expose latency")
	}
}

func TestCPURandomReadLatency(t *testing.T) {
	cpu := New(Default())
	r := cpu.NewRandomRegion()
	// Far-apart lines: each exposes latency.
	cpu.RandomRead(r, 1<<20, 4)
	cpu.RandomRead(r, 2<<20, 4)
	cpu.RandomRead(r, 3<<20, 4)
	c := cpu.Counters()
	want := 3 * cpu.P.RandomMissLatencyCycles
	if c.ExposedLatencyCy != want {
		t.Fatalf("exposed latency %v, want %v", c.ExposedLatencyCy, want)
	}
	// Adjacent-line misses are covered by the stream prefetcher.
	cpu2 := New(Default())
	r2 := cpu2.NewRandomRegion()
	for i := 0; i < 8; i++ {
		cpu2.RandomRead(r2, uint64(1<<20)+uint64(64*i), 4)
	}
	c2 := cpu2.Counters()
	if c2.ExposedLatencyCy != cpu2.P.RandomMissLatencyCycles {
		t.Fatalf("adjacent misses exposed %v cycles, want one miss worth", c2.ExposedLatencyCy)
	}
}

func TestCPUSpeculativePrefetchUselessWhenUnused(t *testing.T) {
	p := Default()
	cpu := New(p)
	for i := 0; i < p.PrefetchWindow+8; i++ {
		cpu.SpeculativePrefetch(uint64(1<<20) + uint64(i*64*4)) // distinct lines
	}
	c := cpu.Finish()
	if c.UselessPrefetch != uint64(p.PrefetchWindow+8) {
		t.Fatalf("useless prefetches = %d, want %d", c.UselessPrefetch, p.PrefetchWindow+8)
	}
	if c.PrefetchedLines != uint64(p.PrefetchWindow+8) {
		t.Fatalf("prefetched lines = %d", c.PrefetchedLines)
	}
}

func TestCPUSpeculativePrefetchUsedIsNotUseless(t *testing.T) {
	cpu := New(Default())
	r := cpu.NewRandomRegion()
	addr := uint64(5 << 20)
	cpu.SpeculativePrefetch(addr)
	cpu.RandomRead(r, addr, 4)
	c := cpu.Finish()
	if c.UselessPrefetch != 0 {
		t.Fatalf("used prefetch counted useless")
	}
	if c.CoveredByPf != 1 {
		t.Fatalf("covered = %d, want 1", c.CoveredByPf)
	}
	if c.ExposedLatencyCy != 0 {
		t.Fatal("covered access exposed latency")
	}
}

func TestBranchChargesPenaltyOnlyOnMispredict(t *testing.T) {
	cpu := New(Default())
	// Train the predictor, then measure a correctly predicted branch.
	for i := 0; i < 100; i++ {
		cpu.Branch(1, true)
	}
	before := cpu.Counters()
	cpu.Branch(1, true)
	after := cpu.Counters()
	if after.Mispredicts != before.Mispredicts {
		t.Fatal("trained branch mispredicted")
	}
	delta := after.ComputeCycles - before.ComputeCycles
	if delta > 1 {
		t.Fatalf("predicted branch cost %v cycles", delta)
	}
}

// TestNilCPUChargesNothing: the four charging methods shared operators call
// are no-ops on a nil *CPU — the native path's "no machine model".
func TestNilCPUChargesNothing(t *testing.T) {
	var cpu *CPU
	region := cpu.NewRandomRegion()
	if region != 0 {
		t.Errorf("NewRandomRegion on nil CPU = %d, want 0", region)
	}
	cpu.Scalar(10)
	cpu.RandomRead(region, 0x1000, 8)
	if !cpu.Branch(1, true) || !cpu.Branch(1, false) {
		t.Error("Branch on nil CPU reported a misprediction")
	}
}

func TestReportRoofline(t *testing.T) {
	p := Default()
	// Compute-bound.
	c := Counters{ComputeCycles: 1e6, DemandDRAMLines: 10}
	r := c.Report(&p)
	if r.RuntimeCycles != 1e6 {
		t.Fatalf("compute-bound runtime %v", r.RuntimeCycles)
	}
	// Memory-bound.
	c2 := Counters{ComputeCycles: 10, DemandDRAMLines: 1e6}
	r2 := c2.Report(&p)
	if r2.RuntimeCycles != r2.MemCycles {
		t.Fatalf("memory-bound runtime %v, mem %v", r2.RuntimeCycles, r2.MemCycles)
	}
	if r2.AchievedGBs < 11.9 || r2.AchievedGBs > 12.1 {
		t.Fatalf("memory-bound bandwidth %v, want ~12", r2.AchievedGBs)
	}
	// RuntimeMs conversion: cycles / (GHz * 1e6).
	if r.RuntimeMs < 0.399 || r.RuntimeMs > 0.401 {
		t.Fatalf("runtime ms %v, want 0.4", r.RuntimeMs)
	}
}

func TestPAPICounterNames(t *testing.T) {
	c := Counters{Mispredicts: 7, UselessPrefetch: 3, Branches: 100}
	m := c.PAPI()
	if m["PAPI_BR_MSP"] != 7 || m["l2_lines_out.useless_hwpf"] != 3 || m["PAPI_BR_CN"] != 100 {
		t.Fatalf("PAPI map = %v", m)
	}
}

func TestAddrSpaceNonOverlapping(t *testing.T) {
	a := NewAddrSpace()
	b1 := a.Alloc(100)
	b2 := a.Alloc(100)
	if b1 == 0 {
		t.Fatal("zero base address")
	}
	if b2 < b1+100 {
		t.Fatalf("overlapping allocations: %d, %d", b1, b2)
	}
	if b1%4096 != 0 || b2%4096 != 0 {
		t.Fatal("allocations not page aligned")
	}
}

func TestCPUReset(t *testing.T) {
	cpu := New(Default())
	s := cpu.NewStream()
	cpu.StreamRead(s, 1<<20, 4)
	cpu.Scalar(10)
	cpu.Branch(1, true)
	cpu.Reset()
	c := cpu.Counters()
	if c.ComputeCycles != 0 || c.DemandDRAMLines != 0 || c.Branches != 0 {
		t.Fatalf("counters not reset: %+v", c)
	}
	// Streams must be re-registered after reset.
	s2 := cpu.NewStream()
	cpu.StreamRead(s2, 1<<20, 4)
	if cpu.Counters().DemandDRAMLines != 1 {
		t.Fatal("cache not flushed by reset")
	}
}
