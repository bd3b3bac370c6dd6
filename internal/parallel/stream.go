package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// EOS is the sentinel error Stream.Next returns when every morsel has been
// delivered. Like io.EOF it signals normal termination, not failure.
var EOS = errors.New("parallel: end of stream")

// Morsel is one morsel's scan outcome, delivered by Stream.Next in morsel
// (i.e. table) order. Res.Positions are relative to Begin.
type Morsel struct {
	// Begin is the table row id of the morsel's first row.
	Begin int
	// Rows is the number of table rows the morsel covers.
	Rows int
	// Res is the kernel result over the morsel's rows.
	Res scan.Result
}

// streamItem is the in-band worker→consumer message: a morsel result or
// its failure.
type streamItem struct {
	idx   int
	begin int
	rows  int
	res   scan.Result
	err   error
}

// Stream is a morsel-driven parallel scan producing results incrementally:
// worker goroutines — one per core, each with its own mach.CPU when the
// stream simulates — run the kernel over morsels round-robin, and Next
// hands the results to the consumer one morsel at a time, merged back into
// table order with a reorder buffer. This is how the batch pipeline
// consumes a parallel scan: downstream operators see the exact stream a
// sequential scan would produce, while production is parallel underneath.
//
// A morsel whose kernel fails to build (or panics while running) poisons
// only that morsel: Next returns its error for that position and can be
// called again for the remaining morsels (the drain-everything caller
// joins them; the pipeline treats the first as fatal and Closes).
//
// Close cancels morsels not yet started — the LIMIT short-circuit path —
// and waits for in-flight ones, so no worker outlives the consumer.
type Stream struct {
	parent context.Context
	cancel context.CancelFunc
	ch     chan streamItem
	wg     *sync.WaitGroup
	cpus   []*mach.CPU // all nil when the stream does not simulate

	pending map[int]streamItem
	next    int
	total   int

	finishOnce sync.Once
	perCore    []mach.Counters
}

// NewStream validates the scan and launches the workers. build constructs
// a kernel per morsel (e.g. a JIT compile hitting the operator cache, or
// scan.NewSISD); wantPositions false runs the kernels in count-only mode.
// params, when non-nil, gives each worker a simulated CPU; nil runs the
// kernels with a nil CPU.
func NewStream(ctx context.Context, params *mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores, morselRows int, wantPositions bool) (*Stream, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if cores < 1 {
		return nil, fmt.Errorf("parallel: cores must be >= 1, got %d", cores)
	}
	if morselRows < 1 {
		return nil, fmt.Errorf("parallel: morselRows must be >= 1, got %d", morselRows)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	n := ch.Rows()
	type morsel struct {
		idx, begin, end int
	}
	var morsels []morsel
	for begin, idx := 0, 0; begin < n; begin, idx = begin+morselRows, idx+1 {
		end := begin + morselRows
		if end > n {
			end = n
		}
		morsels = append(morsels, morsel{idx: idx, begin: begin, end: end})
	}

	wctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		parent: ctx,
		cancel: cancel,
		// The channel is bounded to a couple of morsels per core: workers
		// block when the consumer lags (backpressure), which keeps
		// in-flight results O(cores), not O(table) — and makes Close
		// actually stop upstream work instead of letting workers race to
		// the end of the table.
		ch:      make(chan streamItem, 2*cores),
		wg:      &sync.WaitGroup{},
		cpus:    make([]*mach.CPU, cores),
		pending: make(map[int]streamItem),
		total:   len(morsels),
	}

	// runMorsel builds and runs one morsel's kernel, converting a panic in
	// either into an error: a poisoned morsel must fail that morsel, not
	// the process (worker goroutines are outside any caller's recover).
	runMorsel := func(worker int, m morsel) (res scan.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				// An error-typed panic value (e.g. *faultinject.Panic) is
				// wrapped so errors.As still reaches it.
				if cause, ok := r.(error); ok {
					err = fmt.Errorf("parallel: morsel %d: panic: %w", m.idx, cause)
				} else {
					err = fmt.Errorf("parallel: morsel %d: panic: %v", m.idx, r)
				}
			}
		}()
		if err := faultinject.Hit(faultinject.SiteParallelMorsel); err != nil {
			return scan.Result{}, fmt.Errorf("parallel: morsel %d: %w", m.idx, err)
		}
		sub := ch.Slice(m.begin, m.end)
		kern, err := build(sub)
		if err != nil {
			return scan.Result{}, fmt.Errorf("parallel: morsel %d: %w", m.idx, err)
		}
		return kern.Run(s.cpus[worker], wantPositions), nil
	}

	// Morsels are assigned round-robin so the *simulated* load is balanced
	// deterministically across cores (a wall-clock work queue would balance
	// the emulator's time, not the modelled machine's).
	for c := 0; c < cores; c++ {
		if params != nil {
			s.cpus[c] = mach.New(*params)
		}
		s.wg.Add(1)
		go func(worker int) {
			defer s.wg.Done()
			for mi := worker; mi < len(morsels); mi += cores {
				if wctx.Err() != nil {
					return
				}
				m := morsels[mi]
				res, err := runMorsel(worker, m)
				select {
				case s.ch <- streamItem{idx: m.idx, begin: m.begin, rows: m.end - m.begin, res: res, err: err}:
				case <-wctx.Done():
					return
				}
			}
		}(c)
	}
	go func() {
		s.wg.Wait()
		close(s.ch)
	}()
	return s, nil
}

// Next returns the next morsel in table order, EOS when the scan is
// complete, the context's error when it was cancelled, or the morsel's own
// failure (Next may be called again afterwards to receive the remaining
// morsels).
func (s *Stream) Next() (Morsel, error) {
	for {
		if item, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			s.next++
			if item.err != nil {
				return Morsel{}, item.err
			}
			return Morsel{Begin: item.begin, Rows: item.rows, Res: item.res}, nil
		}
		item, ok := <-s.ch
		if !ok {
			if err := s.parent.Err(); err != nil {
				return Morsel{}, err
			}
			return Morsel{}, EOS
		}
		s.pending[item.idx] = item
	}
}

// Close cancels morsels not yet started and waits for in-flight ones. It
// is safe to call at any point, including before EOS.
func (s *Stream) Close() {
	s.cancel()
	s.wg.Wait()
}

// PerCore waits for the workers and returns each one's counters (nil when
// the stream does not simulate). Call after EOS or Close.
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
