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
// loop with the machine-replay hook on, which compiles the plan trace
// once and Execs the program per serviced IRQ.
func BenchmarkWarmReplay(b *testing.B) {
	kcfg := kernel.Modern()
	kcfg.PreemptionPoints = false
	plan, err := BuildReplayPlan(context.Background(), Config{Kernel: kcfg})
	if err != nil {
		b.Fatal(err)
	}
	prog := machine.Compile(plan.HW, plan.Trace)
	m := machine.New(plan.HW)
	m.LoadImage(plan.Img)
	m.Pollute(measure.PolluteSeed(1, 0))
	for i := 0; i < 3; i++ {
		m.Exec(prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Exec(prog)
	}
}
