package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/scan"
)

func TestScanContextCancelledBeforeStart(t *testing.T) {
	ch := makeChain(t, 10_000, 0.1, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runStream(ctx, simParams(), ch, scan.ImplSISD.Build, 2, 1000, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScanRecoversWorkerPanic(t *testing.T) {
	ch := makeChain(t, 10_000, 0.1, 13)
	var calls atomic.Int64
	build := func(sub scan.Chain) (scan.Kernel, error) {
		if calls.Add(1) == 3 {
			panic("kernel build exploded")
		}
		return scan.NewSISD(sub)
	}
	_, err := runStream(context.Background(), simParams(), ch, build, 2, 1000, false)
	if err == nil {
		t.Fatal("expected an error from the panicking morsel")
	}
	if !strings.Contains(err.Error(), "panic: kernel build exploded") {
		t.Errorf("err = %v, want recovered panic message", err)
	}
}

func TestScanFaultInjectedMorselError(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ch := makeChain(t, 10_000, 0.1, 14)

	faultinject.Arm(faultinject.SiteParallelMorsel, 4, faultinject.ModeError)
	_, err := runStream(context.Background(), simParams(), ch, scan.ImplSISD.Build, 2, 1000, false)
	if err == nil {
		t.Fatal("expected injected morsel error")
	}
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want to unwrap to *faultinject.Error", err)
	}
	if fe.Site != faultinject.SiteParallelMorsel {
		t.Errorf("site = %q", fe.Site)
	}

	// The same scan succeeds once disarmed.
	faultinject.Reset()
	want := scan.Reference(ch, false)
	res, err := runStream(context.Background(), simParams(), ch, scan.ImplSISD.Build, 2, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.count != want.Count {
		t.Fatalf("count = %d, want %d", res.count, want.Count)
	}
}

func TestScanFaultInjectedMorselPanicIsRecovered(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ch := makeChain(t, 10_000, 0.1, 15)

	faultinject.Arm(faultinject.SiteParallelMorsel, 1, faultinject.ModePanic)
	_, err := runStream(context.Background(), simParams(), ch, scan.ImplSISD.Build, 4, 1000, false)
	if err == nil {
		t.Fatal("expected an error from the injected panic")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("err = %v, want a recovered-panic error", err)
	}
}

func TestScanContextCancelStopsWorkers(t *testing.T) {
	ch := makeChain(t, 500_000, 0.1, 16)
	ctx, cancel := context.WithCancel(context.Background())
	morselsRun := 0
	build := func(sub scan.Chain) (scan.Kernel, error) {
		morselsRun++
		if morselsRun == 2 {
			cancel() // cancel from inside the scan, mid-flight
		}
		return scan.NewSISD(sub)
	}
	_, err := runStream(ctx, simParams(), ch, build, 1, 1000, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if morselsRun >= 500 {
		t.Errorf("all %d morsels ran despite cancellation", morselsRun)
	}
}
