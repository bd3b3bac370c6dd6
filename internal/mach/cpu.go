package mach

import (
	"fmt"

	"fusedscan/internal/vec"
)

// Counters are the raw event counts a simulated run accumulates. They map
// onto the hardware counters the paper reads with PAPI (see PAPI()).
type Counters struct {
	ScalarInstrs     uint64
	VecInstrs        uint64
	GatherLanes      uint64
	Branches         uint64
	Mispredicts      uint64
	L1Hits           uint64
	L2Hits           uint64
	L3Hits           uint64
	DemandDRAMLines  uint64
	PrefetchedLines  uint64
	UselessPrefetch  uint64
	CoveredByPf      uint64
	ExposedLatencyCy float64
	ComputeCycles    float64
}

// DRAMLines is the total line traffic from memory: demand misses plus
// prefetched lines (useful or not — useless prefetches waste bandwidth,
// which is one of the paper's Section II observations).
func (c Counters) DRAMLines() uint64 {
	return c.DemandDRAMLines + c.PrefetchedLines
}

// PAPI returns the counters under the names the paper uses.
func (c Counters) PAPI() map[string]uint64 {
	return map[string]uint64{
		"PAPI_BR_MSP":               c.Mispredicts,
		"PAPI_BR_CN":                c.Branches,
		"l2_lines_out.useless_hwpf": c.UselessPrefetch,
	}
}

// CPU is one simulated core. A kernel executes its real algorithm on real
// data and reports its instructions, branches and memory accesses to the
// CPU; the CPU accumulates Counters from which Report derives a runtime.
//
// A nil *CPU is "no machine model": the native path runs plans with one.
// The charging methods operators above the scan share — Scalar, Branch,
// RandomRead and NewRandomRegion — are no-ops on a nil receiver (Branch
// reports a correct prediction, NewRandomRegion region 0), so an operator
// charges the model without checking whether there is one. The emulated
// kernels need a real CPU.
type CPU struct {
	P  Params
	BP *BranchPredictor

	hier *hierarchy
	pf   *prefetchTracker
	c    Counters

	// vecCost caches Params.VecCost: [isa][kind][widthIndex].
	vecCost [2][vec.NumOpKinds][3]float64
	scalarC float64
	lineSh  uint

	// streamLine tracks the current line of each registered sequential
	// stream so that only line crossings touch the cache model.
	streamLine []uint64

	// lastRandLine tracks the previously missed line per random-access
	// region, so ascending-adjacent gather misses are treated as covered
	// by the stream prefetcher (no exposed latency). Indexed by region id;
	// ^0 means no previous miss.
	lastRandLine []uint64
}

// New builds a CPU with the given parameters.
func New(p Params) *CPU {
	cpu := &CPU{
		P:       p,
		BP:      NewBranchPredictor(p.PredictorBits, p.PredictorHistory),
		hier:    newHierarchy(&p),
		pf:      newPrefetchTracker(p.PrefetchWindow),
		scalarC: 1.0 / p.ScalarIPC,
		lineSh:  lineShift(p.LineBytes),
	}
	for _, isa := range []vec.ISA{vec.IsaAVX512, vec.IsaAVX2} {
		for k := 0; k < vec.NumOpKinds; k++ {
			for wi, w := range []vec.Width{vec.W128, vec.W256, vec.W512} {
				cpu.vecCost[isa][k][wi] = p.VecCost(isa, vec.OpKind(k), w)
			}
		}
	}
	return cpu
}

func lineShift(lineBytes int) uint {
	s := uint(0)
	for 1<<s < lineBytes {
		s++
	}
	if 1<<s != lineBytes {
		panic(fmt.Sprintf("mach: line size %d not a power of two", lineBytes))
	}
	return s
}

func widthIndex(w vec.Width) int {
	switch w {
	case vec.W128:
		return 0
	case vec.W256:
		return 1
	case vec.W512:
		return 2
	default:
		panic(fmt.Sprintf("mach: invalid width %d", int(w)))
	}
}

// Reset clears counters, predictor state, caches and prefetch tracking —
// the state of a fresh measurement with flushed caches, as in the paper.
func (cpu *CPU) Reset() {
	cpu.c = Counters{}
	cpu.BP.Reset()
	cpu.hier.flush()
	cpu.pf = newPrefetchTracker(cpu.P.PrefetchWindow)
	cpu.streamLine = cpu.streamLine[:0]
	cpu.lastRandLine = cpu.lastRandLine[:0]
}

// FlushCaches empties the cache hierarchy and drains outstanding
// prefetches, charging any never-used ones as useless.
func (cpu *CPU) FlushCaches() {
	cpu.hier.flush()
	cpu.pf.drain()
}

// Scalar charges n scalar ALU instructions.
func (cpu *CPU) Scalar(n int) {
	if cpu == nil {
		return
	}
	cpu.c.ScalarInstrs += uint64(n)
	cpu.c.ComputeCycles += float64(n) * cpu.scalarC
}

// Vec charges one vector instruction of the given class and width under the
// given ISA dialect.
func (cpu *CPU) Vec(isa vec.ISA, kind vec.OpKind, w vec.Width) {
	cpu.c.VecInstrs++
	cpu.c.ComputeCycles += cpu.vecCost[isa][kind][widthIndex(w)]
}

// Gather charges a gather instruction with the given number of active lanes
// (the per-lane element loads are charged on top of the base issue cost).
func (cpu *CPU) Gather(isa vec.ISA, w vec.Width, lanes int) {
	cpu.Vec(isa, vec.OpGather, w)
	cpu.c.GatherLanes += uint64(lanes)
	cpu.c.ComputeCycles += float64(lanes) * cpu.P.GatherPerLaneCycles
}

// Branch resolves a conditional branch at the given site with the actual
// outcome, charging the misprediction penalty when the predictor was wrong.
// It returns whether the branch was predicted correctly.
func (cpu *CPU) Branch(site uint32, taken bool) bool {
	if cpu == nil {
		return true
	}
	cpu.c.Branches++
	cpu.c.ScalarInstrs++
	cpu.c.ComputeCycles += cpu.scalarC
	predicted := cpu.BP.Record(site, taken)
	if predicted != taken {
		cpu.c.Mispredicts++
		cpu.c.ComputeCycles += cpu.P.MispredictPenaltyCycles
		return false
	}
	return true
}

// PredictTaken returns the predictor's current guess for a site without
// resolving it. The SISD kernel uses it to decide whether the hardware
// would speculatively touch the next column.
func (cpu *CPU) PredictTaken(site uint32) bool {
	return cpu.BP.Predict(site)
}

// NewStream registers a sequential access stream (one per scanned column)
// and returns its id.
func (cpu *CPU) NewStream() int {
	cpu.streamLine = append(cpu.streamLine, ^uint64(0))
	return len(cpu.streamLine) - 1
}

// NewRandomRegion registers a random-access region (one per gathered
// column) and returns its id.
func (cpu *CPU) NewRandomRegion() int {
	if cpu == nil {
		return 0
	}
	cpu.lastRandLine = append(cpu.lastRandLine, ^uint64(0))
	return len(cpu.lastRandLine) - 1
}

// StreamRead accounts a sequential read of size bytes at addr on the given
// stream. Only line crossings consult the cache model; misses cost
// bandwidth but no exposed latency (the stream prefetcher covers them).
func (cpu *CPU) StreamRead(stream int, addr uint64, size int) {
	line := addr >> cpu.lineSh
	if cpu.streamLine[stream] == line {
		return
	}
	cpu.streamLine[stream] = line
	cpu.touch(line, false, -1)
}

// RandomRead accounts a data-dependent read (a gather lane) of size bytes
// at addr within the given region. Misses cost bandwidth; they additionally
// cost exposed latency unless they were covered by a prefetch or are
// line-adjacent to the previous miss in the same region (in which case the
// stream prefetcher would have covered them).
func (cpu *CPU) RandomRead(region int, addr uint64, size int) {
	if cpu == nil {
		return
	}
	line := addr >> cpu.lineSh
	cpu.touch(line, true, region)
}

// SpeculativePrefetch models the hardware prefetcher speculatively loading
// the line holding addr because a branch is predicted to need it. The line
// is installed in the caches and its bandwidth is charged; whether it turns
// out useless is resolved by later demand accesses (or the end of the run).
func (cpu *CPU) SpeculativePrefetch(addr uint64) {
	line := addr >> cpu.lineSh
	if cpu.hier.cached(line) {
		return
	}
	cpu.hier.access(line)
	cpu.pf.insert(line)
}

func (cpu *CPU) touch(line uint64, random bool, region int) {
	covered := cpu.pf.demand(line)
	switch cpu.hier.access(line) {
	case LevelL1:
		cpu.c.L1Hits++
	case LevelL2:
		cpu.c.L2Hits++
	case LevelL3:
		cpu.c.L3Hits++
	default:
		cpu.c.DemandDRAMLines++
		if random && !covered {
			last := cpu.lastRandLine[region]
			if line != last+1 && line != last {
				cpu.c.ExposedLatencyCy += cpu.P.RandomMissLatencyCycles
			}
			cpu.lastRandLine[region] = line
		}
	}
	if covered {
		cpu.c.CoveredByPf++
	}
}

// Counters returns a snapshot of the accumulated counters, with prefetch
// statistics folded in (outstanding prefetches are not drained).
func (cpu *CPU) Counters() Counters {
	c := cpu.c
	c.UselessPrefetch = cpu.pf.useless
	c.PrefetchedLines = cpu.pf.issued
	return c
}

// Finish drains outstanding prefetches (counting stale ones as useless) and
// returns the final counters for the run.
func (cpu *CPU) Finish() Counters {
	cpu.pf.drain()
	return cpu.Counters()
}

// Report summarizes a run: the roofline-combined runtime and its
// components.
type Report struct {
	Counters
	ComputeCyclesTotal float64 // compute + mispredict penalties + exposed latency
	MemCycles          float64 // DRAM traffic at stream bandwidth
	RuntimeCycles      float64
	RuntimeMs          float64
	AchievedGBs        float64 // DRAM traffic / runtime
}

// Report derives the run summary from counters under parameters p.
func (c Counters) Report(p *Params) Report {
	compute := c.ComputeCycles + c.ExposedLatencyCy
	mem := float64(c.DRAMLines()) * p.CyclesPerDRAMLine()
	rt := compute
	if mem > rt {
		rt = mem
	}
	ms := rt / (p.ClockGHz * 1e6)
	gbs := 0.0
	if rt > 0 {
		// bytes/cycle * cycles/ns = bytes/ns = GB/s.
		bytes := float64(c.DRAMLines()) * float64(p.LineBytes)
		gbs = bytes / rt * p.ClockGHz
	}
	return Report{
		Counters:           c,
		ComputeCyclesTotal: compute,
		MemCycles:          mem,
		RuntimeCycles:      rt,
		RuntimeMs:          ms,
		AchievedGBs:        gbs,
	}
}
