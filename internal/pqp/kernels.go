package pqp

import (
	"fmt"
	"sync/atomic"

	"fusedscan/internal/jit"
	"fusedscan/internal/scan"
)

// Family is the kernel family one scan runs on, as chosen by Kernels. Build
// constructs the kernel for the scan's chain or any slice of it (a chunk, a
// morsel, an index window, a join's residual pairs) and is safe for
// concurrent use; Name and Path are the operator name and Path label
// EXPLAIN reports.
type Family struct {
	Build func(scan.Chain) (scan.Kernel, error)
	Name  string
	Path  string
	// Program is the JIT program compiled for the whole chain (the cached
	// fused family only; nil otherwise).
	Program *jit.Program
	reason  atomic.Pointer[string] // first fallback reason; nil while none
}

// Degraded reports whether a fused build fell back to SISD, and the first
// reason it did.
func (f *Family) Degraded() (bool, string) {
	if r := f.reason.Load(); r != nil {
		return true, *r
	}
	return false, ""
}

// Kernels picks the kernel family for a predicate chain. It is the one
// place that choice is made — for plan scans (the direct Scan API's among
// them), join probes and residuals, and index residuals alike:
//
//   - Native: the generated SWAR kernels, "NativeTableScan(SWAR)".
//   - UseFused: the fused kernel, compiled through comp's program cache
//     ("FusedTableScan[sig]"), or built directly when comp is nil
//     ("FusedTableScan(direct)") — for chains mutated at Open or built per
//     batch, whose programs could never be reused.
//   - otherwise the SISD short-circuit scan, "TableScan(SISD)".
//
// It also owns the only fallback rule: a fused build that fails falls back
// to SISD for that chain and records the first reason. The fused family is
// built once over ch up front, so a chain that cannot be fused at all turns
// the whole family into "TableScan(SISD, degraded)"; only a chain SISD also
// rejects returns the error. A nil ch skips that up-front build: a join's
// residual chain exists only at run time. The native family never falls back:
// NewNative fails only on chains SISD rejects too.
func Kernels(ch scan.Chain, comp *jit.Compiler, opts Options) (*Family, error) {
	sisd := func(sub scan.Chain) (scan.Kernel, error) { return scan.NewSISD(sub) }
	switch {
	case opts.Native:
		native := func(sub scan.Chain) (scan.Kernel, error) { return scan.NewNative(sub) }
		return &Family{Build: native, Name: "NativeTableScan(SWAR)", Path: PathNative}, nil
	case !opts.UseFused:
		return &Family{Build: sisd, Name: "TableScan(SISD)", Path: PathScalar}, nil
	}
	fused := func(sub scan.Chain) (scan.Kernel, *jit.Program, error) {
		if comp == nil {
			k, err := scan.NewFused(sub, opts.Width, opts.ISA)
			return k, nil, err
		}
		return comp.CompileChain(sub, opts.Width, opts.ISA)
	}
	f := &Family{Name: "FusedTableScan(direct)", Path: PathEmulated}
	fallback := func(sub scan.Chain, err error) (scan.Kernel, error) {
		k, serr := scan.NewSISD(sub)
		if serr != nil {
			return nil, err
		}
		why := fmt.Sprintf("jit unavailable, using scalar scan: %v", err)
		f.reason.CompareAndSwap(nil, &why)
		return k, nil
	}
	f.Build = func(sub scan.Chain) (scan.Kernel, error) {
		k, _, err := fused(sub)
		if err != nil {
			return fallback(sub, err)
		}
		return k, nil
	}
	if ch == nil {
		return f, nil
	}
	if _, prog, err := fused(ch); err != nil {
		if _, ferr := fallback(ch, err); ferr != nil {
			return nil, ferr
		}
		f.Build, f.Name, f.Path = sisd, "TableScan(SISD, degraded)", PathScalarFallback
	} else if prog != nil {
		f.Program, f.Name = prog, fmt.Sprintf("FusedTableScan[%s]", prog.Sig.Key())
	}
	return f, nil
}

// kernels is Kernels for one scan leaf of p: the plan counts native scans,
// collects the JIT program and keeps the family, so Degraded also sees the
// fallbacks taken while the plan runs.
func (p *Plan) kernels(ch scan.Chain, comp *jit.Compiler, opts Options) (*Family, error) {
	f, err := Kernels(ch, comp, opts)
	if err != nil {
		return nil, err
	}
	if opts.Native {
		p.NativeScans++
	}
	if f.Program != nil {
		p.Programs = append(p.Programs, f.Program)
	}
	p.families = append(p.families, f)
	return f, nil
}

// Degraded reports whether any scan of the plan fell back from a fused
// kernel to SISD — at translation or while running — and the first reason.
func (p *Plan) Degraded() (bool, string) {
	for _, f := range p.families {
		if ok, reason := f.Degraded(); ok {
			return true, reason
		}
	}
	return false, ""
}
