package invariant_test

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/invariant"
	"verikern/internal/kernel"
	"verikern/internal/konfig"
	"verikern/internal/soak"
)

// soakedState returns the kernel state of the named legacy soak-matrix
// point after ops soak ops at seed 1, run with checking off.
func soakedState(tb testing.TB, point string, ops int) *invariant.State {
	tb.Helper()
	return kernelState(soakedKernel(tb, point, ops))
}

// soakedKernel returns the kernel of the named legacy soak-matrix point
// after ops soak ops at seed 1, run with checking off.
func soakedKernel(tb testing.TB, point string, ops int) *kernel.Kernel {
	tb.Helper()
	m, err := konfig.LegacySoakMatrix(arch.ARM1136ID)
	if err != nil {
		tb.Fatal(err)
	}
	for _, np := range m {
		if np.Name != point {
			continue
		}
		kcfg := np.Point.KernelConfig()
		kcfg.CheckInvariants = false
		rn, err := soak.NewRunner(soak.Config{Label: point, Arch: np.Point.Arch, Seed: 1, Kernel: kcfg}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if err := rn.Step(ops); err != nil {
			tb.Fatal(err)
		}
		return rn.Kernel()
	}
	tb.Fatalf("no soak point %q", point)
	return nil
}

// kernelState is the state the kernel checks at kernel exit.
func kernelState(k *kernel.Kernel) *invariant.State {
	return &invariant.State{
		Objects:      k.Objects().Objects(),
		MDBHead:      k.Objects().MDBHead(),
		Sched:        k.Scheduler(),
		Current:      k.Current(),
		VSpace:       k.VSpace(),
		AtKernelExit: true,
	}
}

// TestCheckerAllocFree: once warmed, a Checker checks a consistent
// kernel state without allocating.
func TestCheckerAllocFree(t *testing.T) {
	st := soakedState(t, "benno+nopreempt", 500)
	var c invariant.Checker
	if vs := c.Check(st); len(vs) != 0 {
		t.Fatalf("soaked state is not consistent: %v", vs)
	}
	if n := testing.AllocsPerRun(100, func() { c.Check(st) }); n != 0 {
		t.Errorf("Checker.Check allocated %v times per clean check, want 0", n)
	}
}

// BenchmarkCheck times one check, with a reused Checker, of the kernel
// state after 500 soak ops at the modern (benno+preempt) and lazy soak
// points, two ways: "full" passes Layout 0, so every check runs the
// object checks and rebuilds the typed index; "kernel" passes the
// object manager's layout generation, as the kernel does, so both are
// reused from the first check.
func BenchmarkCheck(b *testing.B) {
	for _, point := range []string{"benno+preempt", "lazy"} {
		k := soakedKernel(b, point, 500)
		full := kernelState(k)
		kept := *full
		kept.Layout = k.Objects().Layout()
		b.Run(point, func(b *testing.B) {
			for _, bc := range []struct {
				name string
				st   *invariant.State
			}{{"full", full}, {"kernel", &kept}} {
				b.Run(bc.name, func(b *testing.B) {
					var c invariant.Checker
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						c.Check(bc.st)
					}
					b.ReportMetric(float64(len(bc.st.Objects)), "objects")
				})
			}
		})
	}
}
