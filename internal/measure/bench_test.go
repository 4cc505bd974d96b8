package measure

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/machine"
	"verikern/internal/wcet"
)

// BenchmarkReplayProgram times one primed replay of the modernised
// kernel's handleSyscall worst-case trace through ReplayProgram: the
// directed probe's per-candidate evaluation, with the trace compiled
// once outside the loop.
func BenchmarkReplayProgram(b *testing.B) {
	img, cons, err := kbin.Build(kbin.Options{Modernised: true})
	if err != nil {
		b.Fatal(err)
	}
	hw := arch.Config{}
	a := wcet.New(img, hw)
	a.AddConstraints(cons...)
	res, err := a.Analyze(kbin.EntrySyscall)
	if err != nil {
		b.Fatal(err)
	}
	prog := machine.Compile(hw, res.Trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReplayProgram(img, prog, machine.PrimeSpec{
			Seed:               PolluteSeed(1, i),
			Footprint:          i%2 == 0,
			ReplacementAdvance: i % 16,
			Mistrain:           i%3 == 0,
		})
	}
}
