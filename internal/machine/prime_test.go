package machine

import (
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
)

// buildLoad returns an image with a function that loads from a fixed
// data word, and its single-block trace.
func buildLoad(t *testing.T) (*kimage.Image, []*kimage.Block) {
	t.Helper()
	img := kimage.New()
	d := img.Data("buf", 64)
	b := img.NewFunc("f")
	b.ALU(4).Load(d).Load(d + 32)
	f := b.Ret()
	if err := img.Link(); err != nil {
		t.Fatal(err)
	}
	return img, []*kimage.Block{f.Entry()}
}

// TestPrimeFootprintEvictsWarmLines: after a warm run, a footprint-
// targeted prime must evict the trace's own lines, so the next run pays
// cold-miss cost again.
func TestPrimeFootprintEvictsWarmLines(t *testing.T) {
	img, trace := buildLoad(t)
	m := New(arch.Config{})
	m.LoadImage(img)
	cold := m.Run(trace)
	warm := m.Run(trace)
	if warm >= cold {
		t.Fatalf("warm run %d not faster than cold %d", warm, cold)
	}
	m.Prime(Compile(m.Config(), trace), PrimeSpec{Seed: 7, Footprint: true})
	primed := m.Run(trace)
	if primed < cold {
		t.Errorf("footprint-primed run %d cheaper than cold run %d", primed, cold)
	}
}

// TestPrimeFootprintAtLeastPollution: targeted dirtying layered on a
// pollution pass can only keep or raise the replay cost relative to
// pollution alone with the same seed.
func TestPrimeFootprintAtLeastPollution(t *testing.T) {
	img, trace := buildLoad(t)
	for _, seed := range []uint32{1, 42, 9999} {
		mp := New(arch.Config{})
		mp.LoadImage(img)
		mp.Pollute(seed)
		polluted := mp.Run(trace)

		mf := New(arch.Config{})
		mf.LoadImage(img)
		mf.Prime(Compile(mf.Config(), trace), PrimeSpec{Seed: seed, Footprint: true})
		primed := mf.Run(trace)
		if primed < polluted {
			t.Errorf("seed %d: footprint prime %d cycles < plain pollution %d", seed, primed, polluted)
		}
	}
}

// TestPrimeMistrainForcesMispredicts: with the predictor enabled, a
// mistrained replay must mispredict every branch of the trace.
func TestPrimeMistrainForcesMispredicts(t *testing.T) {
	img, trace := buildLoad(t)
	m := New(arch.Config{BranchPredictor: true})
	m.LoadImage(img)
	// Warm the predictor toward the trace's real directions first, the
	// state mistraining must overcome.
	m.Run(trace)
	m.Run(trace)
	m.Prime(Compile(m.Config(), trace), PrimeSpec{Seed: 3, Mistrain: true})
	before, _ := m.bp.Stats()
	m.Run(trace)
	correct, wrong := m.bp.Stats()
	if correct != before {
		t.Errorf("mistrained replay still predicted %d branches correctly", correct-before)
	}
	if wrong == 0 {
		t.Errorf("mistrained replay recorded no mispredictions")
	}
}

// TestPrimeReplacementAdvanceDeterministic: the same spec must
// reproduce the same cycles — the probe's resumability rests on it.
func TestPrimeReplacementAdvanceDeterministic(t *testing.T) {
	img, trace := buildLoad(t)
	spec := PrimeSpec{Seed: 11, Footprint: true, ReplacementAdvance: 3, Mistrain: true}
	run := func() uint64 {
		m := New(arch.Config{BranchPredictor: true})
		m.LoadImage(img)
		m.Prime(Compile(m.Config(), trace), spec)
		return m.Run(trace)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical prime specs produced %d and %d cycles", a, b)
	}
}

// TestPrimeKeepsPinnedLines: priming must never evict pinned lines —
// the way-locked interrupt path stays resident through any adversarial
// state.
func TestPrimeKeepsPinnedLines(t *testing.T) {
	img, trace := buildLoad(t)
	img.PinLines(trace[0].InstrAddr(0))
	m := New(arch.Config{PinnedL1Ways: 1})
	if failed := m.LoadImage(img); failed != 0 {
		t.Fatalf("%d pin failures", failed)
	}
	m.Prime(Compile(m.Config(), trace), PrimeSpec{Seed: 5, Footprint: true, ReplacementAdvance: 2})
	if !m.l1i.Pinned(trace[0].InstrAddr(0)) {
		t.Errorf("pinned instruction line lost after Prime")
	}
}
