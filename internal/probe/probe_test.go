package probe

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"verikern/internal/kernel"
	"verikern/internal/passes"
	"verikern/internal/sched"
)

func probeConfig(preempt, pinned bool) Config {
	return Config{
		Label:  "test",
		Seed:   42,
		Budget: 40,
		Kernel: kernel.Config{Scheduler: sched.Benno, PreemptionPoints: preempt},
		Pinned: pinned,
		Cache:  passes.NewCache(nil),
	}
}

// TestProbeSound: the probe's entire point is adversarial pressure on
// the analysis — and a sound analysis must absorb all of it. Every
// observed maximum stays under its computed bound, across the full
// preemption × pinning matrix.
func TestProbeSound(t *testing.T) {
	cache := passes.NewCache(nil)
	for _, c := range []struct {
		preempt, pinned bool
	}{{true, true}, {true, false}, {false, true}, {false, false}} {
		cfg := probeConfig(c.preempt, c.pinned)
		cfg.Cache = cache
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("preempt=%v pinned=%v: %v", c.preempt, c.pinned, err)
		}
		if rep.Violations != 0 {
			t.Errorf("preempt=%v pinned=%v: %d bound violations", c.preempt, c.pinned, rep.Violations)
		}
		for _, e := range rep.Entries {
			if e.ObservedMax > e.BoundCycles {
				t.Errorf("preempt=%v pinned=%v %s: observed %d exceeds bound %d",
					c.preempt, c.pinned, e.Name, e.ObservedMax, e.BoundCycles)
			}
			if e.ObservedMax == 0 {
				t.Errorf("preempt=%v pinned=%v %s: search observed nothing", c.preempt, c.pinned, e.Name)
			}
			if e.Tightness <= 0 || e.Tightness > 1 {
				t.Errorf("preempt=%v pinned=%v %s: tightness %v out of (0,1]",
					c.preempt, c.pinned, e.Name, e.Tightness)
			}
		}
	}
}

// TestProbeDeterministic: the same Config reproduces the identical
// report — the resumable-seed contract the tightness artifact's
// byte-stability rests on.
func TestProbeDeterministic(t *testing.T) {
	run := func() *Report {
		rep, err := Run(context.Background(), probeConfig(true, false))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Entries, b.Entries) {
		t.Errorf("identical configs diverged:\n%+v\n%+v", a.Entries, b.Entries)
	}
	if a.Violations != b.Violations || a.Status != b.Status {
		t.Errorf("identical configs disagree on sentinel state")
	}
}

// TestProbeEntryCoverage: the report carries the four machine entry
// points plus the composed kernel-layer entry, and spends the budget.
func TestProbeEntryCoverage(t *testing.T) {
	rep, err := Run(context.Background(), probeConfig(true, false))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"handleSyscall", "handleInterrupt", "handlePageFault", "handleUndefined", "irq-response"}
	if len(rep.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(rep.Entries), len(want))
	}
	total := 0
	for i, e := range rep.Entries {
		if e.Name != want[i] {
			t.Errorf("entry %d named %q, want %q", i, e.Name, want[i])
		}
		total += e.Evals
	}
	if total != rep.Budget {
		t.Errorf("entries spent %d evals, budget was %d", total, rep.Budget)
	}
}

// TestProbeCapturesNewMax: the kernel-layer search runs with the
// flight recorder armed on every new observed maximum, so a campaign
// that improved at least once must carry captures, each stamped
// "new-max" and holding a trailing event window.
func TestProbeCapturesNewMax(t *testing.T) {
	rep, err := Run(context.Background(), probeConfig(true, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Captures) == 0 {
		t.Fatal("no flight captures from a search that observed maxima")
	}
	for _, c := range rep.Captures {
		if c.Reason != "new-max" {
			t.Errorf("capture reason %q, want new-max", c.Reason)
		}
		if len(c.Events) == 0 {
			t.Errorf("capture carries no trace events")
		}
	}
}

// TestGenomeClampFeasible: every mutated or random genome stays inside
// the feasible region — retype clears bounded (the nopreempt
// soundness cap), pool capacity respected, knobs in range.
func TestGenomeClampFeasible(t *testing.T) {
	s := &kernelSearch{rng: rand.New(rand.NewSource(7)), pool: 8}
	g := s.random()
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			g = s.random()
		} else {
			g = s.mutate(g)
		}
		if int(g.RetypeCount)<<g.RetypeBits > maxRetypeBytes {
			t.Fatalf("genome %v clears %d bytes, cap %d", g, int(g.RetypeCount)<<g.RetypeBits, maxRetypeBytes)
		}
		if g.Waiters+g.Sleepers+2 > s.pool {
			t.Fatalf("genome %v oversubscribes the pool", g)
		}
		if g.Phase < minPhase || g.Phase > maxPhase {
			t.Fatalf("genome %v phase out of window", g)
		}
		if g.Badges > g.Waiters {
			t.Fatalf("genome %v has more badges than waiters", g)
		}
		if g.DecodeDepth < 1 || g.DecodeDepth > 32 {
			t.Fatalf("genome %v decode depth out of range", g)
		}
		if g.MsgLen < 1 || g.MsgLen > 119 {
			t.Fatalf("genome %v message length out of range", g)
		}
	}
}
