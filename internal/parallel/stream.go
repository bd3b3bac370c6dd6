package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// EOS is the sentinel error Stream.Next returns when every morsel has been
// delivered. Like io.EOF it signals normal termination, not failure.
var EOS = errors.New("parallel: end of stream")

// Window is one morsel: the table rows [Begin, End) and, when the caller
// keeps a sorted list of row ids in them (an index scan's candidates),
// their entries [Lo, Hi) of it.
type Window struct {
	Begin, End int
	Lo, Hi     int
}

// Windows splits rows into consecutive windows of at most size rows.
func Windows(rows, size int) []Window {
	var ws []Window
	for begin := 0; begin < rows; begin += size {
		ws = append(ws, Window{Begin: begin, End: min(begin+size, rows)})
	}
	return ws
}

// Job is the work one morsel does: it runs window w on core (0 is the
// consumer) against cpu — the core's simulated CPU, nil when the stream
// does not simulate — and returns the morsel's result. A job touches no
// state another core writes: anything it keeps between morsels is
// per-core scratch, indexed by core.
type Job[T any] func(core int, cpu *mach.CPU, w Window) (T, error)

// Morsel is one morsel's scan outcome, the result of a ScanJob.
// Res.Positions are relative to Begin.
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

// ScanJob is the job of a stream that only scans: each morsel builds the
// kernel for ch sliced to its window (build is e.g. a JIT compile hitting
// the operator cache, or scan.NewNative) and runs it, in count-only mode
// when wantPositions is false.
func ScanJob(ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), wantPositions bool) (Job[Morsel], error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	return func(_ int, cpu *mach.CPU, w Window) (Morsel, error) {
		sub := ch.Slice(w.Begin, w.End)
		kern, err := build(sub)
		if err != nil {
			return Morsel{}, err
		}
		return Morsel{Begin: w.Begin, Rows: w.End - w.Begin, Chain: sub, Res: kern.Run(cpu, wantPositions)}, nil
	}, nil
}

// PanicError is a morsel's recovered panic: its job panicked with Value on
// one of the stream's cores, whose stack Stack records.
type PanicError struct {
	Morsel int
	Value  any
	Stack  string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: morsel %d: panic: %v", e.Morsel, e.Value)
}

// Unwrap returns an error-typed panic value (e.g. *faultinject.Panic), so
// errors.As still reaches it.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// streamItem is one morsel's result or failure, keyed by its window index.
type streamItem[T any] struct {
	idx int
	val T
	err error
}

// Stream is a morsel-driven parallel stream producing results
// incrementally: every window runs the caller's job, whose first step is
// the scan kernel and whose later steps are whatever the caller fuses
// behind it (the batch pipeline runs a window's join probe and aggregate
// fold there). The consuming goroutine is one of the cores: Next runs
// morsels itself while it waits, and cores-1 helper goroutines run the
// rest, so a stream on N cores occupies exactly N goroutines. Next hands
// the results over one morsel at a time, merged back into window order
// with a reorder buffer, so the consumer sees the sequence a sequential
// loop over the windows would produce while production is parallel
// underneath.
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
// A morsel whose job fails (or panics) poisons only that morsel: Next
// returns its error for that position and can be called again for the
// remaining morsels (the pipeline treats the first as fatal and Closes).
//
// Close cancels morsels not yet started — the LIMIT short-circuit path —
// and waits for in-flight ones, so no helper outlives the consumer.
type Stream[T any] struct {
	parent  context.Context
	ctx     context.Context // parent, also cancelled by Close
	cancel  context.CancelFunc
	job     Job[T]
	windows []Window
	cores   int
	helpers int
	// claimed is the next unclaimed morsel of a native stream.
	claimed atomic.Int64
	ch      chan streamItem[T]
	wg      sync.WaitGroup
	cpus    []*mach.CPU // all nil when the stream does not simulate

	pending map[int]streamItem[T]
	next    int

	finishOnce sync.Once
	perCore    []mach.Counters
}

// NewStream starts the helpers of a stream running job over windows, which
// must be ascending and disjoint. params, when non-nil, gives each core a
// simulated CPU; nil runs every job with a nil CPU.
func NewStream[T any](ctx context.Context, params *mach.Params, job Job[T], cores int, windows []Window) (*Stream[T], error) {
	if cores < 1 {
		return nil, fmt.Errorf("parallel: cores must be >= 1, got %d", cores)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	s := &Stream[T]{
		parent: ctx, ctx: wctx, cancel: cancel,
		job: job, windows: windows,
		cores: cores,
		// A core with no morsel to run is not started.
		helpers: max(min(cores, len(windows))-1, 0),
		// The channel is bounded to a couple of morsels per core: helpers
		// block when the consumer lags (backpressure), which keeps
		// in-flight results O(cores), not O(table) — and makes Close
		// actually stop upstream work instead of letting helpers race to
		// the end of the table.
		ch:      make(chan streamItem[T], 2*cores),
		cpus:    make([]*mach.CPU, cores),
		pending: make(map[int]streamItem[T]),
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
func (s *Stream[T]) Helpers() int { return s.helpers }

// simulated reports whether morsels are dealt round-robin to simulated
// CPUs rather than claimed from the shared counter.
func (s *Stream[T]) simulated() bool { return s.cpus[0] != nil }

// claim returns the morsel core runs after prev (-1 for its first), or a
// value >= len(windows) when none remains.
func (s *Stream[T]) claim(core, prev int) int {
	if s.simulated() {
		if prev < 0 {
			return core
		}
		return prev + s.cores
	}
	return int(s.claimed.Add(1) - 1)
}

// help is one helper core's loop: claim, run, hand the result over.
func (s *Stream[T]) help(core int) {
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

// run runs morsel i's job on core's CPU, converting a panic into a
// *PanicError: a poisoned morsel must fail that morsel, not the process
// (helper goroutines are outside any caller's recover).
func (s *Stream[T]) run(core, i int) (item streamItem[T]) {
	item.idx = i
	defer func() {
		if r := recover(); r != nil {
			item.err = &PanicError{Morsel: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	if err := faultinject.Hit(faultinject.SiteParallelMorsel); err != nil {
		item.err = fmt.Errorf("parallel: morsel %d: %w", i, err)
		return item
	}
	var err error
	if item.val, err = s.job(core, s.cpus[core], s.windows[i]); err != nil {
		item.err = fmt.Errorf("parallel: morsel %d: %w", i, err)
	}
	return item
}

// Next returns the next morsel's result in window order, EOS when every
// morsel has been delivered, the context's error when it was cancelled, or
// the morsel's own failure together with whatever its job returned (Next
// may be called again afterwards to receive the remaining morsels). While
// the next morsel is not ready, Next runs one of the consumer's own.
func (s *Stream[T]) Next() (T, error) {
	var zero T
	for {
		if err := s.parent.Err(); err != nil {
			return zero, err
		}
		if s.next >= len(s.windows) {
			return zero, EOS
		}
		if item, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			s.next++
			return item.val, item.err
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
				return zero, err
			}
			return zero, EOS
		}
	}
}

// Close cancels morsels not yet started and waits for in-flight ones. It
// is safe to call at any point, including before EOS, and more than once.
func (s *Stream[T]) Close() {
	s.cancel()
	s.wg.Wait()
}

// PerCore waits for the helpers and returns each core's counters (nil
// when the stream does not simulate). Call after EOS or Close.
func (s *Stream[T]) PerCore() []mach.Counters {
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
