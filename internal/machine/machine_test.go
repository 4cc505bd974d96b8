package machine

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
)

// buildLinear returns a linked image with a single straight-line
// function of n ALU instructions and the trace that executes it.
func buildLinear(t *testing.T, n int) (*kimage.Image, []*kimage.Block) {
	t.Helper()
	img := kimage.New()
	b := img.NewFunc("f")
	b.ALU(n)
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	return img, []*kimage.Block{f.Entry()}
}

func TestColdVsWarmRun(t *testing.T) {
	_, trace := buildLinear(t, 64)
	m := New(arch.Config{})
	cold := m.Run(trace)
	warm := m.Run(trace)
	if cold <= warm {
		t.Errorf("cold run (%d) not slower than warm run (%d)", cold, warm)
	}
	// Warm: 64 ALU cycles + 1 branch (5 cycles, predictor off).
	want := uint64(64*arch.CostALU + arch.BranchCostNoPredict)
	if warm != want {
		t.Errorf("warm run = %d cycles, want %d", warm, want)
	}
}

func TestMemLatencyL2OffVsOn(t *testing.T) {
	_, traceOff := buildLinear(t, 8)
	mOff := New(arch.Config{L2Enabled: false})
	mOn := New(arch.Config{L2Enabled: true})
	coldOff := mOff.Run(traceOff)
	coldOn := mOn.Run(traceOff)
	// A single-line cold fetch: 60-cycle memory with L2 off, 96 with
	// L2 on (cold L2 misses too).
	if coldOn <= coldOff {
		t.Errorf("cold run with L2 on (%d) not slower than off (%d)", coldOn, coldOff)
	}
	// But a second run after only L1 eviction hits in L2.
	warmOn := mOn.Run(traceOff)
	if warmOn >= coldOn {
		t.Errorf("warm L2 run (%d) not faster than cold (%d)", warmOn, coldOn)
	}
}

func TestPollutionIncreasesTime(t *testing.T) {
	_, trace := buildLinear(t, 128)
	m := New(arch.Config{})
	m.Run(trace) // warm up
	warm := m.Run(trace)
	m.Pollute(1)
	polluted := m.Run(trace)
	if polluted <= warm {
		t.Errorf("polluted run (%d) not slower than warm (%d)", polluted, warm)
	}
}

func TestPinnedLinesAlwaysHit(t *testing.T) {
	img, trace := buildLinear(t, 16)
	// Pin every line of the function.
	blk := trace[0]
	var lines []uint32
	for a := blk.Addr &^ uint32(arch.LineBytes-1); a < blk.InstrAddr(blk.NumInstrs()-1); a += arch.LineBytes {
		lines = append(lines, a)
	}
	img.PinLines(lines...)

	m := New(arch.Config{PinnedL1Ways: 1})
	if failed := m.LoadImage(img); failed != 0 {
		t.Fatalf("%d lines failed to pin", failed)
	}
	m.Pollute(3)
	run := m.Run(trace)
	want := uint64(16*arch.CostALU + arch.BranchCostNoPredict)
	if run != want {
		t.Errorf("pinned run = %d cycles, want %d (no misses)", run, want)
	}
}

func TestLoadImageWithoutLockedWays(t *testing.T) {
	img, _ := buildLinear(t, 4)
	img.PinLines(img.Funcs["f"].Entry().Addr)
	m := New(arch.Config{PinnedL1Ways: 0})
	// With no locked ways, pinning is silently skipped (not failed):
	// the "without pinning" configuration of Table 1.
	if failed := m.LoadImage(img); failed != 0 {
		t.Errorf("LoadImage reported %d failures with pinning disabled", failed)
	}
}

func TestStridedDataRefsWalk(t *testing.T) {
	img := kimage.New()
	base := img.Data("queue", 32*8)
	b := img.NewFunc("f")
	b.Loop(8, func(b *kimage.FuncBuilder) {
		b.LoadStride(base, 32, 8)
	})
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	// Execute the loop 8 times: header, (body, header) x8, exit.
	var trace []*kimage.Block
	var header, body, exit *kimage.Block
	for _, blk := range f.Blocks {
		switch {
		case f.LoopBounds[blk.Name] > 0:
			header = blk
		case len(blk.Succs) == 1 && blk.Succs[0] != "" && f.LoopBounds[blk.Succs[0]] > 0 && blk != f.Entry():
			body = blk
		}
	}
	for _, blk := range f.Blocks {
		if blk != f.Entry() && blk != header && blk != body && len(blk.Succs) <= 1 {
			exit = blk
		}
	}
	if header == nil || body == nil || exit == nil {
		t.Fatal("could not identify loop blocks")
	}
	trace = append(trace, f.Entry())
	for i := 0; i < 8; i++ {
		trace = append(trace, header, body)
	}
	trace = append(trace, header, exit)

	m := New(arch.Config{})
	m.Run(trace)
	c := m.Counters()
	// 8 distinct lines touched: all 8 data accesses must miss.
	if c.L1DMisses != 8 {
		t.Errorf("L1D misses = %d, want 8 (one per stride step)", c.L1DMisses)
	}

	// A second pass over the same addresses hits.
	m.ResetCounters()
	m.Run(trace)
	c = m.Counters()
	if c.L1DMisses != 0 {
		t.Errorf("second walk missed %d times, want 0", c.L1DMisses)
	}
}

func TestCountersAccumulate(t *testing.T) {
	_, trace := buildLinear(t, 10)
	m := New(arch.Config{L2Enabled: true})
	m.Run(trace)
	c := m.Counters()
	if c.Instructions != 10 {
		t.Errorf("instructions = %d, want 10", c.Instructions)
	}
	if c.Branches != 1 {
		t.Errorf("branches = %d, want 1", c.Branches)
	}
	if c.L1IMisses == 0 || c.L2Misses == 0 {
		t.Error("cold run recorded no misses")
	}
	m.ResetCounters()
	if got := m.Counters(); got.Instructions != 0 || got.Cycles != 0 {
		t.Error("ResetCounters left residue")
	}
}

func TestBranchPredictorLowersWarmCost(t *testing.T) {
	_, trace := buildLinear(t, 4)
	mOff := New(arch.Config{BranchPredictor: false})
	mOn := New(arch.Config{BranchPredictor: true})
	for i := 0; i < 4; i++ {
		mOff.Run(trace)
		mOn.Run(trace)
	}
	off := mOff.Run(trace)
	on := mOn.Run(trace)
	if on >= off {
		t.Errorf("warm run with predictor (%d) not faster than without (%d)", on, off)
	}
}

func TestCyclesToMicros(t *testing.T) {
	if got := arch.CyclesToMicros(532); got != 1.0 {
		t.Errorf("532 cycles = %v µs, want 1.0", got)
	}
}

// TestRunAllocationFree: Run lowers into machine-owned scratch, so
// repeated Runs reach an allocation-free steady state, and Exec of a
// compiled program never allocates.
func TestRunAllocationFree(t *testing.T) {
	_, linear := buildLinear(t, 64)
	_, load := buildLoad(t)
	for _, trace := range [][]*kimage.Block{linear, load} {
		m := New(arch.Config{L2Enabled: true, BranchPredictor: true})
		m.Run(trace)
		if n := testing.AllocsPerRun(50, func() { m.Run(trace) }); n != 0 {
			t.Errorf("Run allocated %.1f times per call in steady state", n)
		}
		p := Compile(m.Config(), trace)
		if n := testing.AllocsPerRun(50, func() { m.Exec(p) }); n != 0 {
			t.Errorf("Exec allocated %.1f times per call", n)
		}
	}
}
