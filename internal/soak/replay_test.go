package soak

import (
	"context"
	"testing"

	"verikern/internal/kernel"
	"verikern/internal/sched"
)

// TestMachineReplayDeterministic: a machine-replay soak is as
// reproducible as a plain one — the same config replays the same
// pollution sequence and lands on the identical final machine state.
// The pinned image exercises the cache's locked-way victim selection.
func TestMachineReplayDeterministic(t *testing.T) {
	base := Config{
		Label:         "benno+preempt+pinned",
		Kernel:        kernel.Config{Scheduler: sched.Benno, PreemptionPoints: true},
		Pinned:        true,
		Seed:          7,
		RingCap:       1 << 16,
		MachineReplay: true,
	}
	plan, err := BuildReplayPlan(context.Background(), base.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Runner {
		cfg := base
		cfg.Replay = plan
		rn, err := NewRunner(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rn.Step(120); err != nil {
			t.Fatal(err)
		}
		return rn
	}
	a, b := run(), run()
	if a.Replays() != b.Replays() || a.Replays() == 0 {
		t.Fatalf("replay counts: %d vs %d", a.Replays(), b.Replays())
	}
	if !a.ReplayMachine().StateEqual(b.ReplayMachine()) {
		t.Fatal("identical configs landed on different machine states")
	}
	if a.Kernel().Now() != b.Kernel().Now() {
		t.Fatal("identical configs disagree on simulated time")
	}
}

// TestRunMachineReplayReport: the full Run pipeline resolves the
// replay plan itself and surfaces the replay count in the report.
func TestRunMachineReplayReport(t *testing.T) {
	cfg := Config{
		Label:         "benno+preempt",
		Kernel:        kernel.Config{Scheduler: sched.Benno, PreemptionPoints: true},
		Seed:          3,
		Ops:           150,
		MachineReplay: true,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replays == 0 {
		t.Fatal("machine-replay run reported zero replays")
	}
	if rep.Bound.Violations != 0 {
		t.Fatalf("%d bound violations under machine replay", rep.Bound.Violations)
	}
}
