package pqp

import (
	"strings"
	"testing"

	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/jit"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// TestKernelsFamilies pins the one kernel-family decision: the operator
// name, Path label and program each configuration gets, and that every
// family's kernels agree with the reference.
func TestKernelsFamilies(t *testing.T) {
	_, tbl, _ := fixture(t, 5000)
	a, _ := tbl.Column("a")
	b, _ := tbl.Column("b")
	ch := scan.Chain{
		{Col: a, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 5)},
		{Col: b, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 2)},
	}
	want := scan.Reference(ch, true)
	fused := DefaultOptions()
	sisd := fused
	sisd.UseFused = false
	native := fused
	native.Native = true
	for _, tc := range []struct {
		opts        Options
		comp        *jit.Compiler
		name, path  string
		wantProgram bool
	}{
		{native, jit.NewCompiler(), "NativeTableScan(SWAR)", PathNative, false},
		{fused, jit.NewCompiler(), "FusedTableScan[", PathEmulated, true},
		{fused, nil, "FusedTableScan(direct)", PathEmulated, false},
		{sisd, jit.NewCompiler(), "TableScan(SISD)", PathScalar, false},
	} {
		f, err := Kernels(ch, tc.comp, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(f.Name, tc.name) || f.Path != tc.path || (f.Program != nil) != tc.wantProgram {
			t.Errorf("family %q/%q program=%v, want %q/%q program=%v",
				f.Name, f.Path, f.Program != nil, tc.name, tc.path, tc.wantProgram)
		}
		kern, err := f.Build(ch)
		if err != nil {
			t.Fatal(err)
		}
		if got := kern.Run(mach.New(mach.Default()), true); got.Count != want.Count {
			t.Errorf("%s: count %d, want %d", f.Name, got.Count, want.Count)
		}
		if ok, _ := f.Degraded(); ok {
			t.Errorf("%s: degraded without a failure", f.Name)
		}
	}
}

// TestKernelsFallback: a fused chain that cannot compile up front turns the
// family into the degraded SISD scan; one that fails later falls back for
// that chain only. Both record the reason.
func TestKernelsFallback(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	_, tbl, _ := fixture(t, 1000)
	a, _ := tbl.Column("a")
	ch := scan.Chain{{Col: a, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 5)}}

	faultinject.Arm(faultinject.SiteJITCompile, 1, faultinject.ModeError)
	f, err := Kernels(ch, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "TableScan(SISD, degraded)" || f.Path != PathScalarFallback {
		t.Errorf("family %q/%q, want the degraded SISD scan", f.Name, f.Path)
	}
	if ok, why := f.Degraded(); !ok || !strings.Contains(why, "faultinject") {
		t.Errorf("Degraded() = %v, %q", ok, why)
	}

	f, err = Kernels(nil, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SiteJITCompile, 1, faultinject.ModeError)
	kern, err := f.Build(ch)
	if err != nil {
		t.Fatal(err)
	}
	if _, isSISD := kern.(*scan.SISD); !isSISD {
		t.Errorf("fallback kernel is %T, want *scan.SISD", kern)
	}
	if ok, _ := f.Degraded(); !ok {
		t.Error("a failed build did not record its reason")
	}
}
