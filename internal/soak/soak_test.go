package soak

import (
	"bytes"
	"context"
	"testing"

	"verikern/internal/kernel"
)

func modernCfg(label string, pinned bool) Config {
	kcfg := kernel.Modern()
	kcfg.CheckInvariants = false // O(objects) per preemption point; covered by TestSoakInvariantsOn
	return Config{
		Label:   label,
		Seed:    42,
		Ops:     5000,
		Workers: 2,
		Kernel:  kcfg,
		Pinned:  pinned,
	}
}

// TestSoakSmoke is the CI acceptance gate: two modernised
// configurations soak ~10k ops against their computed WCET bounds with
// zero violations, and the per-source attribution is populated (at
// least 4 distinct sources, each with a non-empty histogram).
func TestSoakSmoke(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []Config{
		modernCfg("benno+preempt+pinned", true),
		modernCfg("benno+preempt", false),
	} {
		rep, err := Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label, err)
		}
		if rep.Ops != cfg.Ops {
			t.Errorf("%s: ran %d ops, want %d", cfg.Label, rep.Ops, cfg.Ops)
		}
		if rep.Bound.Cycles == 0 {
			t.Fatalf("%s: no WCET bound resolved", cfg.Label)
		}
		if rep.Bound.Violations != 0 {
			t.Errorf("%s: %d bound violations (bound %d, max %d); captures: %+v",
				cfg.Label, rep.Bound.Violations, rep.Bound.Cycles, rep.MaxLatency, rep.Captures)
		}
		if rep.MaxLatency == 0 || rep.MaxLatency > rep.Bound.Cycles {
			t.Errorf("%s: max latency %d vs bound %d", cfg.Label, rep.MaxLatency, rep.Bound.Cycles)
		}
		srcs := rep.Sources()
		if len(srcs) < 4 {
			t.Errorf("%s: only %d attributed sources: %+v", cfg.Label, len(srcs), srcs)
		}
		var total uint64
		for _, d := range srcs {
			if d.Count == 0 {
				t.Errorf("%s: empty histogram for source %q", cfg.Label, d.Source)
			}
			total += d.Count
		}
		if total != rep.Snapshot.IRQ.Count {
			t.Errorf("%s: source counts sum to %d, aggregate %d", cfg.Label, total, rep.Snapshot.IRQ.Count)
		}
	}
}

// TestSoakOriginalConfig soaks the pre-modification kernel: the
// monolithic walks push observed latency far beyond the modern
// kernel's, but still under the original image's (much larger) bound.
func TestSoakOriginalConfig(t *testing.T) {
	cfg := Config{Label: "lazy", Seed: 7, Ops: 2000, Workers: 1, Kernel: kernel.Original()}
	cfg.Kernel.CheckInvariants = false
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bound.Violations != 0 {
		t.Errorf("lazy config violated its own bound %d (max %d)", rep.Bound.Cycles, rep.MaxLatency)
	}
	// The 64 KiB non-preemptible clear dominates: the observed worst
	// case must dwarf the modern kernel's ~13k-cycle ceiling.
	if rep.MaxLatency < 100_000 {
		t.Errorf("original kernel max latency %d suspiciously low", rep.MaxLatency)
	}
}

// TestSoakDeterministic: identical configs render byte-identical
// snapshots; a different seed diverges.
func TestSoakDeterministic(t *testing.T) {
	cfg := modernCfg("det", false)
	cfg.Ops, cfg.Workers = 2000, 3
	cfg.BoundCycles = 142_957 // skip analysis; determinism is the subject
	render := func(seed uint64) []byte {
		c := cfg
		c.Seed = seed
		rep, err := Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Snapshot.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(99), render(99)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different snapshots")
	}
	if bytes.Equal(a, render(100)) {
		t.Error("different seed produced an identical snapshot")
	}
}

// TestSoakResumable: stepping a runner in increments reaches exactly
// the same kernel state as one uninterrupted run.
func TestSoakResumable(t *testing.T) {
	cfg := modernCfg("resume", false)
	cfg.BoundCycles = 142_957
	run := func(batches []int) (uint64, uint64) {
		rn, err := NewRunner(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range batches {
			if err := rn.Step(n); err != nil {
				t.Fatal(err)
			}
		}
		lat := rn.Tracer().Latencies()
		return rn.Kernel().Now(), lat.Sum()
	}
	now1, sum1 := run([]int{400})
	now2, sum2 := run([]int{100, 250, 50})
	if now1 != now2 || sum1 != sum2 {
		t.Errorf("resumed run diverged: cycles %d vs %d, latency sum %d vs %d", now1, now2, sum1, sum2)
	}
}

// TestSoakFlightRecorder injects an absurd bound (1 cycle) so every
// sample is a violation, and checks the sentinel takes captures with
// real trailing event windows, honouring MaxCaptures.
func TestSoakFlightRecorder(t *testing.T) {
	cfg := modernCfg("flight", false)
	cfg.Ops, cfg.Workers = 500, 1
	cfg.BoundCycles = 1
	cfg.MaxCaptures = 3
	cfg.FlightEvents = 16
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bound.Violations == 0 {
		t.Fatal("injected 1-cycle bound produced no violations")
	}
	if len(rep.Captures) == 0 {
		t.Fatal("violations took no flight-recorder captures")
	}
	if len(rep.Captures) > cfg.MaxCaptures {
		t.Errorf("%d captures exceed MaxCaptures %d", len(rep.Captures), cfg.MaxCaptures)
	}
	for i, c := range rep.Captures {
		if c.Reason != "violation" {
			t.Errorf("capture %d reason %q", i, c.Reason)
		}
		if len(c.Events) == 0 || len(c.Events) > cfg.FlightEvents {
			t.Errorf("capture %d has %d events (window %d)", i, len(c.Events), cfg.FlightEvents)
		}
		if c.Sample.Latency <= cfg.BoundCycles {
			t.Errorf("capture %d latency %d does not violate bound", i, c.Sample.Latency)
		}
		// The capture must end at or after the offending service
		// event's emission window — the events lead up to the sample.
		last := c.Events[len(c.Events)-1]
		if last.TS > c.Sample.TS {
			t.Errorf("capture %d trailing event TS %d is past the sample TS %d", i, last.TS, c.Sample.TS)
		}
	}
	if rep.Bound.Captures != uint64(len(rep.Captures)) {
		t.Errorf("status captures %d != %d", rep.Bound.Captures, len(rep.Captures))
	}
}

// TestCaptureCarriesShardIdentity checks captures are stamped with the
// worker (shard) index, campaign seed and op index at capture time —
// the identification a fleet-level violation dump is traced back by.
func TestCaptureCarriesShardIdentity(t *testing.T) {
	cfg := modernCfg("identity", false)
	cfg.Ops, cfg.Workers = 600, 3
	cfg.BoundCycles = 1 // every sample violates
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Captures) == 0 {
		t.Fatal("no captures")
	}
	seenWorker := map[int]bool{}
	for i, c := range rep.Captures {
		if c.Worker < 0 || c.Worker >= cfg.Workers {
			t.Errorf("capture %d worker %d out of range", i, c.Worker)
		}
		if c.Seed != cfg.Seed {
			t.Errorf("capture %d seed %d, want campaign seed %d", i, c.Seed, cfg.Seed)
		}
		seenWorker[c.Worker] = true
	}
	// With a 1-cycle bound every worker trips its captures.
	if len(seenWorker) != cfg.Workers {
		t.Errorf("captures name %d distinct workers, want %d", len(seenWorker), cfg.Workers)
	}
	// Identity must come from capture time, not the merge: a direct
	// Runner (never passing through report()) is stamped too.
	rn, err := NewRunner(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Step(200); err != nil {
		t.Fatal(err)
	}
	caps := rn.Captures()
	if len(caps) == 0 {
		t.Fatal("direct runner took no captures")
	}
	for i, c := range caps {
		if c.Worker != 2 || c.Seed != cfg.Seed {
			t.Errorf("direct capture %d identity = worker %d seed %d", i, c.Worker, c.Seed)
		}
		if c.Op > rn.Ops() {
			t.Errorf("direct capture %d op index %d beyond ops run %d", i, c.Op, rn.Ops())
		}
	}
}

// TestSoakCancel: a cancelled context stops the run between chunks and
// surfaces the context error with a partial report.
func TestSoakCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := modernCfg("cancel", false)
	cfg.BoundCycles = 142_957
	rep, err := Run(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Ops >= cfg.Ops {
		t.Errorf("expected a partial report, got %+v", rep)
	}
}

// TestComputeBound sanity-checks the sentinel's bound source: pinning
// tightens the modern bound, and the original kernel's bound dwarfs
// both.
func TestComputeBound(t *testing.T) {
	ctx := context.Background()
	modern, err := ComputeBound(ctx, Config{Kernel: kernel.Modern()})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := ComputeBound(ctx, Config{Kernel: kernel.Modern(), Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := ComputeBound(ctx, Config{Kernel: kernel.Original()})
	if err != nil {
		t.Fatal(err)
	}
	if pinned >= modern {
		t.Errorf("pinned bound %d not tighter than unpinned %d", pinned, modern)
	}
	if orig <= modern*2 {
		t.Errorf("original bound %d not dominating modern %d", orig, modern)
	}
}
