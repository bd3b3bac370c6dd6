package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// EOS is the sentinel error Stream.Next returns when every morsel has been
// delivered. Like io.EOF it signals normal termination, not failure.
var EOS = errors.New("parallel: end of stream")

// Window is one morsel: the table rows [Begin, End).
type Window struct {
	Begin, End int
}

// Windows splits rows into consecutive windows of at most size rows.
func Windows(rows, size int) []Window {
	var ws []Window
	for begin := 0; begin < rows; begin += size {
		ws = append(ws, Window{Begin: begin, End: min(begin+size, rows)})
	}
	return ws
}

// Morsel is one morsel's scan outcome, delivered by Stream.Next in morsel
// (i.e. table) order. Res.Positions are relative to Begin.
type Morsel struct {
	// Begin is the table row id of the morsel's first row.
	Begin int
	// Rows is the number of table rows the morsel covers.
	Rows int
	// Chain is the chain sliced to the morsel's rows, as the kernel ran.
	Chain scan.Chain
	// Res is the kernel result over the morsel's rows.
	Res scan.Result
}

// streamItem is one morsel's result or failure, keyed by its window index.
type streamItem struct {
	idx int
	sub scan.Chain
	res scan.Result
	err error
}

// Stream is a morsel-driven parallel scan producing results incrementally.
// The consuming goroutine is one of the cores: Next runs morsels itself
// while it waits, and cores-1 helper goroutines run the rest, so a
// stream on N cores occupies exactly N goroutines. Next hands the results
// over one morsel at a time, merged back into window order with a reorder
// buffer. This is how the batch pipeline consumes a parallel scan:
// downstream operators see the exact stream a sequential scan would
// produce, while production is parallel underneath.
//
// Assignment: a simulating stream (non-nil params) gives each core its own
// mach.CPU and deals morsel i to core i % cores — the consumer is core 0 —
// so the modelled load is deterministic (a wall-clock work queue would
// balance the emulator's time, not the modelled machine's). A native
// stream lets every core claim the next unclaimed morsel from one atomic
// counter, and the consumer keeps running morsels instead of parking
// while a helper's is late: on a ~1 ms packed scan that measured faster
// than the fixed i % cores split (DESIGN §9).
//
// A morsel whose kernel fails to build (or panics while running) poisons
// only that morsel: Next returns its error for that position and can be
// called again for the remaining morsels (the pipeline treats the first
// as fatal and Closes).
//
// Close cancels morsels not yet started — the LIMIT short-circuit path —
// and waits for in-flight ones, so no helper outlives the consumer.
type Stream struct {
	parent  context.Context
	ctx     context.Context // parent, also cancelled by Close
	cancel  context.CancelFunc
	chain   scan.Chain
	build   func(scan.Chain) (scan.Kernel, error)
	windows []Window
	want    bool
	cores   int
	helpers int
	// claimed is the next unclaimed morsel of a native stream.
	claimed atomic.Int64
	ch      chan streamItem
	wg      sync.WaitGroup
	cpus    []*mach.CPU // all nil when the stream does not simulate

	pending map[int]streamItem
	next    int

	finishOnce sync.Once
	perCore    []mach.Counters
}

// NewStream validates the scan and starts the helpers over windows, which
// must be ascending and disjoint. build constructs a kernel per morsel
// (e.g. a JIT compile hitting the operator cache, or scan.NewNative);
// wantPositions false runs the kernels in count-only mode. params, when
// non-nil, gives each core a simulated CPU; nil runs the kernels with a
// nil CPU.
func NewStream(ctx context.Context, params *mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores int, windows []Window, wantPositions bool) (*Stream, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if cores < 1 {
		return nil, fmt.Errorf("parallel: cores must be >= 1, got %d", cores)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		parent: ctx, ctx: wctx, cancel: cancel,
		chain: ch, build: build, windows: windows, want: wantPositions,
		cores: cores,
		// A core with no morsel to run is not started.
		helpers: max(min(cores, len(windows))-1, 0),
		// The channel is bounded to a couple of morsels per core: helpers
		// block when the consumer lags (backpressure), which keeps
		// in-flight results O(cores), not O(table) — and makes Close
		// actually stop upstream work instead of letting helpers race to
		// the end of the table.
		ch:      make(chan streamItem, 2*cores),
		cpus:    make([]*mach.CPU, cores),
		pending: make(map[int]streamItem),
	}
	if params != nil {
		for c := range s.cpus {
			s.cpus[c] = mach.New(*params)
		}
	}
	s.wg.Add(s.helpers)
	for c := 1; c <= s.helpers; c++ {
		go s.help(c)
	}
	return s, nil
}

// Helpers reports how many helper goroutines the stream started: its
// cores less the consumer, and never more than there are other morsels.
func (s *Stream) Helpers() int { return s.helpers }

// simulated reports whether morsels are dealt round-robin to simulated
// CPUs rather than claimed from the shared counter.
func (s *Stream) simulated() bool { return s.cpus[0] != nil }

// claim returns the morsel core runs after prev (-1 for its first), or a
// value >= len(windows) when none remains.
func (s *Stream) claim(core, prev int) int {
	if s.simulated() {
		if prev < 0 {
			return core
		}
		return prev + s.cores
	}
	return int(s.claimed.Add(1) - 1)
}

// help is one helper core's loop: claim, run, hand the result over.
func (s *Stream) help(core int) {
	defer s.wg.Done()
	for i := s.claim(core, -1); i < len(s.windows); i = s.claim(core, i) {
		if s.ctx.Err() != nil {
			return
		}
		select {
		case s.ch <- s.run(core, i):
		case <-s.ctx.Done():
			return
		}
	}
}

// run builds and runs morsel i's kernel on core's CPU, converting a panic
// in either into an error: a poisoned morsel must fail that morsel, not
// the process (helper goroutines are outside any caller's recover).
func (s *Stream) run(core, i int) (item streamItem) {
	item.idx = i
	defer func() {
		if r := recover(); r != nil {
			// An error-typed panic value (e.g. *faultinject.Panic) is
			// wrapped so errors.As still reaches it.
			if cause, ok := r.(error); ok {
				item.err = fmt.Errorf("parallel: morsel %d: panic: %w", i, cause)
			} else {
				item.err = fmt.Errorf("parallel: morsel %d: panic: %v", i, r)
			}
		}
	}()
	if err := faultinject.Hit(faultinject.SiteParallelMorsel); err != nil {
		item.err = fmt.Errorf("parallel: morsel %d: %w", i, err)
		return item
	}
	w := s.windows[i]
	item.sub = s.chain.Slice(w.Begin, w.End)
	kern, err := s.build(item.sub)
	if err != nil {
		item.err = fmt.Errorf("parallel: morsel %d: %w", i, err)
		return item
	}
	item.res = kern.Run(s.cpus[core], s.want)
	return item
}

// Next returns the next morsel in window order, EOS when the scan is
// complete, the context's error when it was cancelled, or the morsel's own
// failure (Next may be called again afterwards to receive the remaining
// morsels). While the next morsel is not ready, Next runs one of the
// consumer's own.
func (s *Stream) Next() (Morsel, error) {
	for {
		if err := s.parent.Err(); err != nil {
			return Morsel{}, err
		}
		if s.next >= len(s.windows) {
			return Morsel{}, EOS
		}
		if item, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			s.next++
			if item.err != nil {
				return Morsel{}, item.err
			}
			w := s.windows[item.idx]
			return Morsel{Begin: w.Begin, Rows: w.End - w.Begin, Chain: item.sub, Res: item.res}, nil
		}
		if s.simulated() {
			if s.next%s.cores == 0 {
				s.pending[s.next] = s.run(0, s.next)
				continue
			}
		} else {
			select {
			case item := <-s.ch:
				s.pending[item.idx] = item
				continue
			default:
			}
			// Run ahead only as far as the channel bound lets helpers run
			// ahead, so the reorder buffer stays O(cores) too.
			if s.claimed.Load() < int64(s.next+cap(s.ch)) {
				if i := s.claim(0, -1); i < len(s.windows) {
					s.pending[i] = s.run(0, i)
					continue
				}
			}
		}
		select {
		case item := <-s.ch:
			s.pending[item.idx] = item
		case <-s.ctx.Done():
			// Close ran, or the parent was cancelled (checked above).
			if err := s.parent.Err(); err != nil {
				return Morsel{}, err
			}
			return Morsel{}, EOS
		}
	}
}

// Close cancels morsels not yet started and waits for in-flight ones. It
// is safe to call at any point, including before EOS.
func (s *Stream) Close() {
	s.cancel()
	s.wg.Wait()
}

// PerCore waits for the helpers and returns each core's counters (nil
// when the stream does not simulate). Call after EOS or Close.
func (s *Stream) PerCore() []mach.Counters {
	s.finishOnce.Do(func() {
		s.wg.Wait()
		for _, cpu := range s.cpus {
			if cpu != nil {
				s.perCore = append(s.perCore, cpu.Finish())
			}
		}
	})
	return s.perCore
}

// CombinedModel is the multi-core performance model over per-core
// counters (see the package comment for the formula).
type CombinedModel struct {
	RuntimeMs    float64
	ComputeMs    float64
	MemMs        float64
	AggregateGBs float64
}

// Combine applies the shared-socket bandwidth model to per-core counters:
// runtime is the slower of the slowest core's compute time and the total
// DRAM traffic at min(N x per-core stream bandwidth, socket bandwidth).
func Combine(params mach.Params, perCore []mach.Counters) CombinedModel {
	var maxComputeCy float64
	var totalLines uint64
	for _, c := range perCore {
		compute := c.ComputeCycles + c.ExposedLatencyCy
		if compute > maxComputeCy {
			maxComputeCy = compute
		}
		totalLines += c.DRAMLines()
	}
	aggBW := params.StreamBandwidthGBs * float64(len(perCore))
	if aggBW > params.SocketBandwidthGBs {
		aggBW = params.SocketBandwidthGBs
	}
	bytesTotal := float64(totalLines) * float64(params.LineBytes)
	memCycles := bytesTotal / (aggBW / params.ClockGHz)
	runtimeCycles := maxComputeCy
	if memCycles > runtimeCycles {
		runtimeCycles = memCycles
	}
	m := CombinedModel{
		ComputeMs: maxComputeCy / (params.ClockGHz * 1e6),
		MemMs:     memCycles / (params.ClockGHz * 1e6),
		RuntimeMs: runtimeCycles / (params.ClockGHz * 1e6),
	}
	if runtimeCycles > 0 {
		m.AggregateGBs = bytesTotal / runtimeCycles * params.ClockGHz
	}
	return m
}
