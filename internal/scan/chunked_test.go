package scan

import (
	"testing"

	"fusedscan/internal/mach"
)

// runChunked is the tests' reference chunk loop: it builds a kernel per
// chunkRows-row slice of ch, skips the slices a Pruner proves empty, and
// rebases each slice's positions to table row ids. It also returns how
// many slices were pruned.
func runChunked(t *testing.T, build func(Chain) (Kernel, error), ch Chain, chunkRows int, cpu *mach.CPU, wantPositions bool) (Result, int) {
	t.Helper()
	pr := NewPruner(ch, chunkRows)
	var total Result
	pruned := 0
	for begin := 0; begin < ch.Rows(); begin += chunkRows {
		end := min(begin+chunkRows, ch.Rows())
		if pr.Prune(begin, end) {
			pruned++
			continue
		}
		kern, err := build(ch.Slice(begin, end))
		if err != nil {
			t.Fatalf("chunk [%d, %d): %v", begin, end, err)
		}
		res := kern.Run(cpu, wantPositions)
		total.Count += res.Count
		for _, p := range res.Positions {
			total.Positions = append(total.Positions, p+uint32(begin))
		}
	}
	return total, pruned
}

func TestRunChunkedMatchesWholeTable(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1000, 4097} {
		for _, chunkRows := range []int{1, 7, 64, 1000, 100000} {
			ch := makeIntChain(t, n, 2, 0.2, int64(n+chunkRows))
			want := Reference(ch, true)
			for _, im := range AllImpls() {
				got, _ := runChunked(t, im.Build, ch, chunkRows, mach.New(mach.Default()), true)
				if !equalResults(got, want) {
					t.Fatalf("%v n=%d chunk=%d: count %d, want %d (positions %d vs %d)",
						im, n, chunkRows, got.Count, want.Count, len(got.Positions), len(want.Positions))
				}
			}
		}
	}
}

func TestRunChunkedMemoryBehaviourMatchesUnchunked(t *testing.T) {
	// Zero-copy views must preserve the address stream: the chunked scan
	// touches exactly the same DRAM lines as the whole-table scan (modulo
	// per-chunk stream-state resets).
	ch := makeIntChain(t, 200_000, 2, 0.1, 5)
	p := mach.Default()

	cpuWhole := mach.New(p)
	kern, err := ImplAVX512Fused512.Build(ch)
	if err != nil {
		t.Fatal(err)
	}
	kern.Run(cpuWhole, false)
	whole := cpuWhole.Finish()

	cpuChunk := mach.New(p)
	runChunked(t, ImplAVX512Fused512.Build, ch, 50_000, cpuChunk, false)
	chunked := cpuChunk.Finish()

	// Same demand traffic within 1% (chunk boundaries may re-touch a line).
	lo, hi := whole.DemandDRAMLines*99/100, whole.DemandDRAMLines*101/100+4
	if chunked.DemandDRAMLines < lo || chunked.DemandDRAMLines > hi {
		t.Errorf("chunked demand lines %d, whole-table %d", chunked.DemandDRAMLines, whole.DemandDRAMLines)
	}
}

func TestColumnSliceView(t *testing.T) {
	ch := makeIntChain(t, 100, 1, 0.5, 9)
	col := ch[0].Col
	view := col.Slice(10, 20)
	if view.Len() != 10 {
		t.Fatalf("view length %d", view.Len())
	}
	for i := 0; i < 10; i++ {
		if view.Raw(i) != col.Raw(10+i) {
			t.Fatalf("view row %d differs", i)
		}
	}
	if view.Addr(0) != col.Addr(10) {
		t.Fatal("view address arithmetic broken")
	}
	// Writes through the view are visible in the parent (shared bytes).
	view.SetRaw(0, 12345)
	if col.Raw(10) != 12345 {
		t.Fatal("view does not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slice did not panic")
		}
	}()
	col.Slice(50, 200)
}
