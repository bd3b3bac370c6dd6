// Package parallel extends the single-core reproduction with morsel-driven
// parallel scans, in the spirit of the morsel footnote the paper carries
// over from Hyrise ("[the table] can, however, be horizontally partitioned
// into chunks or morsels"). The paper's evaluation is single-core; this
// package is an explicitly-labelled extension.
//
// Execution model: a stream runs over a list of row windows (morsels) —
// fixed-size ones from Windows, the zone-map-surviving chunks in the batch
// pipeline. The consuming goroutine and cores-1 helpers each run a
// caller-supplied job per window: the scan kernel over zero-copy column
// views first, then whatever the caller fuses behind it (the batch
// pipeline's join probe and aggregate fold), so a window is finished on
// the core that scanned it. Results are merged in morsel order, so they
// are identical to a sequential loop over the windows. Given machine
// parameters, each core simulates its own mach.CPU (own caches, own branch
// predictor); given nil, as on the native path, none builds one.
//
// Failure model: a morsel whose job fails (or panics while running)
// poisons only that morsel, not the process — every core recovers panics,
// and Stream.Next returns each failed morsel's error in its place.
// Context cancellation is checked between morsels, so a cancelled stream
// stops within one morsel's worth of work per core.
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
