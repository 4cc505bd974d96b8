package kernel_test

import (
	"reflect"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/invariant/faults"
	"verikern/internal/konfig"
	"verikern/internal/soak"
)

// TestLayoutSkipDifferential runs invariants-on soak campaigns on every
// legacy soak-matrix point, seeds 1-5, and after every op checks that
// the kernel's own Checker, which skips the object checks for a layout
// generation it found clean and keeps its typed object index per
// generation, reports exactly what a fresh Checker does. Broken states
// are compared too: every faultEvery ops a fault from the catalog,
// none of which touches an object-layout field, corrupts the state
// for one comparison and is reverted, and the lazy point and the
// preempting points also reach model defects of their own.
func TestLayoutSkipDifferential(t *testing.T) {
	const ops, faultEvery = 1000, 50
	m, err := konfig.LegacySoakMatrix(arch.ARM1136ID)
	if err != nil {
		t.Fatal(err)
	}
	broken, drawn := 0, 0
	for seed := uint64(1); seed <= 5; seed++ {
		for _, np := range m {
			p, err := np.Point.Set("debug.check-invariants", "true")
			if err != nil {
				t.Fatal(err)
			}
			rn, err := soak.NewRunner(soak.Config{
				Label:  np.Name,
				Arch:   p.Arch,
				Seed:   seed,
				Kernel: p.KernelConfig(),
				Pinned: p.Pinned(),
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			k := rn.Kernel()
			for op := 0; op < ops; op++ {
				// Step reports an op error or the kernel's (sticky)
				// invariant failure; only the former is fatal.
				if err := rn.Step(1); err != nil && k.InvariantFailure() == nil {
					t.Fatalf("seed %d %s op %d: %v", seed, np.Name, op, err)
				}
				if kept, fresh := k.ExitChecks(); !reflect.DeepEqual(kept, fresh) {
					t.Fatalf("seed %d %s op %d:\nkernel checker: %v\nfresh checker:  %v", seed, np.Name, op, kept, fresh)
				}
				if op%faultEvery != faultEvery-1 {
					continue
				}
				st := k.ExitState()
				f := faults.Catalog[drawn%len(faults.Catalog)]
				drawn++
				revert := f.Apply(&st, op)
				if revert == nil {
					continue
				}
				kept, fresh := k.ExitChecks()
				revert()
				if !reflect.DeepEqual(kept, fresh) {
					t.Fatalf("seed %d %s op %d, fault %q:\nkernel checker: %v\nfresh checker:  %v", seed, np.Name, op, f.Name, kept, fresh)
				}
				if len(fresh) > 0 {
					broken++
				}
			}
			if k.InvariantFailure() != nil {
				broken++
			}
		}
	}
	t.Logf("%d faults drawn; %d broken states or campaigns compared", drawn, broken)
	if broken == 0 {
		t.Error("no campaign or injected fault broke an invariant, so broken states went uncompared")
	}
}
