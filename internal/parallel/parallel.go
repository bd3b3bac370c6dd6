// Package parallel extends the single-core reproduction with morsel-driven
// parallel scans, in the spirit of the morsel footnote the paper carries
// over from Hyrise ("[the table] can, however, be horizontally partitioned
// into chunks or morsels"). The paper's evaluation is single-core; this
// package is an explicitly-labelled extension.
//
// Execution model: the scan runs over a list of row windows (morsels) —
// fixed-size ones here, the zone-map-surviving chunks in the batch
// pipeline. The consuming goroutine and cores-1 helpers run the scan
// kernel over zero-copy column views of them. Functional results are
// merged in morsel order, so they are identical to a sequential scan.
// Given machine parameters, each core simulates its own mach.CPU (own
// caches, own branch predictor); given nil, as on the native path, none
// builds one.
//
// Failure model: a morsel whose kernel fails to build (or panics while
// running) poisons only that morsel, not the process — every core recovers
// panics, every morsel error is collected, and ScanContext returns them
// all joined with errors.Join. Context cancellation is checked between
// morsels, so a cancelled scan stops within one morsel's worth of work
// per core.
//
// Performance model: per-core compute is independent, but all cores share
// the socket's memory controllers. The combined report takes
//
//	runtime = max( max over cores of compute cycles,
//	               total DRAM lines at min(N x per-core BW, socket BW) )
//
// which produces the expected behaviour: CPU-bound scans scale linearly
// with cores, bandwidth-bound scans saturate at SocketBandwidthGBs /
// StreamBandwidthGBs cores (~6.7 with the default calibration).
package parallel

import (
	"context"
	"errors"
	"fmt"

	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// Result is the outcome of a parallel scan.
type Result struct {
	Count     int
	Positions []uint32

	// Cores is the number of cores requested. Fewer run when there are
	// fewer morsels than cores.
	Cores int
	// PerCore holds each simulated core's counters, one per requested core.
	PerCore []mach.Counters
	// RuntimeMs is the modelled parallel runtime (see package doc).
	RuntimeMs float64
	// ComputeMs is the slowest core's compute time.
	ComputeMs float64
	// MemMs is the shared-bandwidth memory time.
	MemMs float64
	// AggregateGBs is the bandwidth actually achieved.
	AggregateGBs float64
}

// Scan executes the chain on `cores` cores over morsels of morselRows
// rows. build constructs a kernel per morsel (e.g. scan.Impl.Build). With
// nil params no core simulates a CPU, and PerCore and the modelled times
// stay zero.
func Scan(params *mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores, morselRows int, wantPositions bool) (*Result, error) {
	return ScanContext(context.Background(), params, ch, build, cores, morselRows, wantPositions)
}

// ScanContext is Scan with cooperative cancellation: every core checks ctx
// between morsels and stops early when it is cancelled, in which case
// ctx.Err() is returned. All per-morsel failures (build errors and
// recovered kernel panics) are aggregated with errors.Join rather than
// keeping only the first.
//
// ScanContext is the drain-everything convenience over Stream: it pulls
// every morsel, rebases positions to absolute row ids, and applies the
// combined performance model. The batch pipeline (internal/pqp) consumes
// Stream directly instead, morsel by morsel.
func ScanContext(ctx context.Context, params *mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores, morselRows int, wantPositions bool) (*Result, error) {
	if morselRows < 1 {
		return nil, fmt.Errorf("parallel: morselRows must be >= 1, got %d", morselRows)
	}
	s, err := NewStream(ctx, params, ch, build, cores, Windows(ch.Rows(), morselRows), wantPositions)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	out := &Result{Cores: cores}
	var all []error
	for {
		m, err := s.Next()
		if err == EOS {
			break
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			all = append(all, err)
			continue
		}
		out.Count += m.Res.Count
		if wantPositions {
			for _, pos := range m.Res.Positions {
				out.Positions = append(out.Positions, pos+uint32(m.Begin))
			}
		}
	}
	if err := errors.Join(all...); err != nil {
		return nil, err
	}

	if params != nil {
		out.PerCore = s.PerCore()
		model := Combine(*params, out.PerCore)
		out.ComputeMs = model.ComputeMs
		out.MemMs = model.MemMs
		out.RuntimeMs = model.RuntimeMs
		out.AggregateGBs = model.AggregateGBs
	}
	return out, nil
}
