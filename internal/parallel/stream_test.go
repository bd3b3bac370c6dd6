package parallel

import (
	"context"
	"slices"
	"testing"

	"fusedscan/internal/scan"
)

func TestStreamOrderedMergeMatchesReference(t *testing.T) {
	ch := makeChain(t, 100_000, 0.1, 3)
	want := scan.Reference(ch, true)
	for _, cores := range []int{1, 2, 4} {
		for _, morsel := range []int{999, 8192} {
			s, err := newScanStream(context.Background(), simParams(), ch, scan.ImplAVX512Fused512.Build, cores, Windows(ch.Rows(), morsel), true)
			if err != nil {
				t.Fatal(err)
			}
			var positions []uint32
			count := 0
			lastBegin := -1
			for {
				m, err := s.Next()
				if err == EOS {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if m.Begin <= lastBegin {
					t.Fatalf("cores=%d: morsel order violated: begin %d after %d", cores, m.Begin, lastBegin)
				}
				lastBegin = m.Begin
				count += m.Res.Count
				for _, p := range m.Res.Positions {
					positions = append(positions, p+uint32(m.Begin))
				}
			}
			s.Close()
			if count != want.Count || len(positions) != len(want.Positions) {
				t.Fatalf("cores=%d morsel=%d: count %d, want %d", cores, morsel, count, want.Count)
			}
			for i := range want.Positions {
				if positions[i] != want.Positions[i] {
					t.Fatalf("cores=%d: position %d differs", cores, i)
				}
			}
		}
	}
}

func TestStreamEarlyCloseCancelsRemainingMorsels(t *testing.T) {
	ch := makeChain(t, 1_000_000, 0.5, 4)
	s, err := newScanStream(context.Background(), simParams(), ch, scan.ImplSISD.Build, 2, Windows(ch.Rows(), 10_000), true)
	if err != nil {
		t.Fatal(err)
	}
	// Consume one morsel, then abandon the stream (the LIMIT path).
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The workers must have stopped early: the rows they processed (visible
	// in per-core scalar instruction counts) stay far below a full scan's.
	var full, did uint64
	fs, err := newScanStream(context.Background(), simParams(), ch, scan.ImplSISD.Build, 2, Windows(ch.Rows(), 10_000), true)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := fs.Next(); err != nil {
			break
		}
	}
	for _, c := range fs.PerCore() {
		full += c.ScalarInstrs
	}
	for _, c := range s.PerCore() {
		did += c.ScalarInstrs
	}
	if full == 0 {
		t.Fatal("full scan recorded no work")
	}
	if did*4 > full {
		t.Errorf("early close did %d scalar instrs, full scan %d — morsels were not cancelled", did, full)
	}
}

func TestStreamContextCancellation(t *testing.T) {
	ch := makeChain(t, 200_000, 0.5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := newScanStream(ctx, simParams(), ch, scan.ImplSISD.Build, 2, Windows(ch.Rows(), 5_000), true)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	sawErr := false
	for {
		_, err := s.Next()
		if err == EOS {
			break
		}
		if err == context.Canceled {
			sawErr = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawErr {
		t.Error("cancelled stream drained to EOS without surfacing ctx.Err()")
	}
	s.Close()
}

// TestNativeStreamOverSparseWindows: a native stream runs exactly the
// windows it is given — here every other one, as zone-map pruning would
// leave them — with the consumer as one of the cores, so N cores start
// N-1 helpers (never more than there are other windows).
func TestNativeStreamOverSparseWindows(t *testing.T) {
	ch := makeChain(t, 100_000, 0.2, 7)
	native := func(sub scan.Chain) (scan.Kernel, error) { return scan.NewNative(sub) }
	var windows []Window
	for i, w := range Windows(ch.Rows(), 3000) {
		if i%2 == 0 {
			windows = append(windows, w)
		}
	}
	var want []uint32
	for _, w := range windows {
		for _, p := range scan.Reference(ch.Slice(w.Begin, w.End), true).Positions {
			want = append(want, p+uint32(w.Begin))
		}
	}
	for _, tc := range []struct {
		cores   int
		windows []Window
		helpers int
	}{
		{1, windows, 0}, {2, windows, 1}, {4, windows, 3}, {4, windows[:2], 1}, {3, nil, 0},
	} {
		s, err := newScanStream(context.Background(), nil, ch, native, tc.cores, tc.windows, true)
		if err != nil {
			t.Fatal(err)
		}
		if s.Helpers() != tc.helpers {
			t.Errorf("cores=%d windows=%d: %d helpers, want %d", tc.cores, len(tc.windows), s.Helpers(), tc.helpers)
		}
		var got []uint32
		for i := 0; ; i++ {
			m, err := s.Next()
			if err == EOS {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if w := tc.windows[i]; m.Begin != w.Begin || m.Rows != w.End-w.Begin {
				t.Fatalf("cores=%d: morsel %d covers [%d, +%d), want %v", tc.cores, i, m.Begin, m.Rows, w)
			}
			for _, p := range m.Res.Positions {
				got = append(got, p+uint32(m.Begin))
			}
		}
		s.Close()
		if len(tc.windows) == len(windows) && !slices.Equal(got, want) {
			t.Errorf("cores=%d: %d positions differ from the reference's %d", tc.cores, len(got), len(want))
		}
	}
}
