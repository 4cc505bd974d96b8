package soak_test

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/soak"
)

// BenchmarkCheckedOp times one soak op on the benno+nopreempt point
// with invariants checked, the soak-checked inner loop. Ops run in
// campaigns of 512 on seeds 1-10 in turn, each on a freshly booted
// runner whose setup is not timed, so the kernel state stays the size
// a checked soak campaign sees.
func BenchmarkCheckedOp(b *testing.B) {
	const campaignOps = 512
	m, err := konfig.LegacySoakMatrix(arch.ARM1136ID)
	if err != nil {
		b.Fatal(err)
	}
	var cfg soak.Config
	for _, np := range m {
		if np.Name == "benno+nopreempt" {
			p, err := np.Point.Set("debug.check-invariants", "true")
			if err != nil {
				b.Fatal(err)
			}
			cfg = soak.Config{Label: np.Name, Arch: p.Arch, Kernel: p.KernelConfig(), Pinned: p.Pinned()}
		}
	}
	if cfg.Label == "" {
		b.Fatal("no benno+nopreempt point in the legacy soak matrix")
	}
	b.ReportAllocs()
	var rn *soak.Runner
	for i := 0; i < b.N; i++ {
		if i%campaignOps == 0 {
			b.StopTimer()
			cfg.Seed = uint64(i/campaignOps%10 + 1)
			if rn, err = soak.NewRunner(cfg, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := rn.Step(1); err != nil {
			b.Fatal(err)
		}
	}
}
