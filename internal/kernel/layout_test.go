package kernel_test

import (
	"reflect"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/soak"
)

// TestLayoutSkipDifferential runs invariants-on soak campaigns on every
// legacy soak-matrix point, seeds 1-5, and after every op checks that
// the kernel's own Checker, which skips the object checks for a layout
// generation it found clean, reports exactly what a fresh Checker
// does. The lazy point breaks early and the preempting points reach
// the mdb-depth defect, so broken states are compared too.
func TestLayoutSkipDifferential(t *testing.T) {
	const ops = 1000
	m, err := konfig.LegacySoakMatrix(arch.ARM1136ID)
	if err != nil {
		t.Fatal(err)
	}
	broken := 0
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
			}
			if k.InvariantFailure() != nil {
				broken++
			}
		}
	}
	if broken == 0 {
		t.Error("no campaign broke an invariant, so broken states went uncompared")
	}
}
