package soak

import (
	"context"
	"testing"

	"verikern/internal/kernel"
	"verikern/internal/machine"
	"verikern/internal/measure"
)

// BenchmarkWarmReplay times one warm replay of the analysed interrupt
// path on a polluted-then-warmed machine: the soak observatory's inner
// loop with the machine-replay hook on.
func BenchmarkWarmReplay(b *testing.B) {
	kcfg := kernel.Modern()
	kcfg.PreemptionPoints = false
	plan, err := BuildReplayPlan(context.Background(), Config{Kernel: kcfg})
	if err != nil {
		b.Fatal(err)
	}
	m := machine.New(plan.HW)
	m.LoadImage(plan.Img)
	m.Pollute(measure.PolluteSeed(1, 0))
	for i := 0; i < 3; i++ {
		m.Run(plan.Trace)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(plan.Trace)
	}
}
