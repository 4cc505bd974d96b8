package main

import (
	"context"
	"fmt"
	"hash/fnv"

	"verikern/internal/arch"
	"verikern/internal/invariant"
	"verikern/internal/kernel"
	"verikern/internal/konfig"
	"verikern/internal/machine"
	"verikern/internal/obs"
	"verikern/internal/soak"
)

// opMix is the benchmark's op stream: the soak's own weighted mix
// (soak.Runner.Step) with two points of its IPC share given to deep-ipc,
// so every OpKind is driven and timed.
var opMix = []struct {
	kind   soak.OpKind
	weight int
}{
	{soak.OpIPC, 23}, {soak.OpDeepIPC, 2}, {soak.OpReplyRecv, 10},
	{soak.OpEndpointChurn, 15}, {soak.OpRetype, 10}, {soak.OpVSpace, 5},
	{soak.OpCapOps, 7}, {soak.OpThreadCtl, 7}, {soak.OpSignal, 10},
	{soak.OpYield, 5}, {soak.OpIdle, 6},
}

// opStream is the seeded op stream of one point in one campaign: each
// op is a kind drawn from opMix and, 70% of the time (as
// soak.Runner.Step does), a one-shot timer armed 100-20,099 cycles ahead.
type opStream struct{ r *rng }

func newOpStream(seed uint64, point int) opStream {
	return opStream{newRng(seed ^ uint64(point+1)*0xD1B54A32D192ED03)}
}

// next arms the runner's timer when drawn and returns the op to run.
func (s opStream) next(rn *soak.Runner) soak.OpKind {
	p := s.r.intn(100)
	kind := soak.OpIdle
	for _, m := range opMix {
		if p < m.weight {
			kind = m.kind
			break
		}
		p -= m.weight
	}
	if s.r.float() < 0.7 {
		rn.ArmTimer(uint64(100 + s.r.intn(20_000)))
	}
	return kind
}

// soakWorkload drives the four-point soak matrix through soak.Runner in
// a closed loop: one runner per point per campaign, one op at a time.
// Machine replay runs inside the ops, through the runner's own hook
// (soak.Config.MachineReplay with the resolved plan). The ops come from
// the benchmark's stream through RunOp rather than soak.Runner.Step, so
// each op kind is a span of its own and deep-ipc is driven; the merge is
// the benchmark's own obs.Snapshot, as soak.Run's report is not public.
type soakWorkload struct {
	replay  bool // soak.Config.MachineReplay on every point
	checked bool // debug.check-invariants=true on every point
	seed    uint64
	budget  int // ops per point per campaign
	// points are the matrix's soak configurations, resolved as soak.Run
	// resolves them: the sentinel bound from soak.ComputeBound and, for
	// replay, the plan from soak.BuildReplayPlan.
	points []soak.Config

	// Fixed-set aggregates (simulated, deterministic per seed).
	lat      []float64
	maxSeen  []uint64
	opCalls  [soak.NumOpKinds]uint64
	opCycles [soak.NumOpKinds]uint64
	preempts uint64
	irqs     uint64
	events   uint64
	fixedOps uint64
	replays  uint64
	mc       machine.Counters

	// Traced-run attribution.
	checkObjects uint64
	opNs         int64  // RunOp ns with the mode's feature on
	shadowNs     int64  // the same ops with it off
	censusCycles uint64 // simulated cycles of the directly timed replays
	snapshotNs   []float64
}

// replayCensus is how many replays the traced run times per point per
// campaign.
const replayCensus = 32

// checkEvery is how often (in ops) the traced soak-checked run times a
// direct invariant.Check.
const checkEvery = 32

func newSoakWorkload(mode string, seed uint64) *soakWorkload {
	w := &soakWorkload{seed: seed}
	switch mode {
	case "plain":
		w.budget = 20_000
	case "replay":
		w.replay, w.budget = true, 2_500
	case "checked":
		w.checked, w.budget = true, 512
	}
	return w
}

// setup resolves every point's soak configuration as soak.Run does
// (sentinel bound, then replay plan, each a cold analysis) and boots
// campaign 0's runners.
func (w *soakWorkload) setup(ctx context.Context, tr *tracer) error {
	m, err := konfig.LegacySoakMatrix(arch.ARM1136ID)
	if err != nil {
		return err
	}
	w.points = w.points[:0]
	for _, np := range m {
		p := np.Point
		if w.checked {
			if p, err = p.Set("debug.check-invariants", "true"); err != nil {
				return err
			}
		}
		cfg := soak.Config{
			Label:         np.Name,
			Arch:          p.Arch,
			ConfigKey:     p.Hash(),
			Ops:           uint64(w.budget),
			Kernel:        p.KernelConfig(),
			Pinned:        p.Pinned(),
			MachineReplay: w.replay,
		}
		tr.begin("wcet", "soak.ComputeBound")
		cfg.BoundCycles, err = soak.ComputeBound(ctx, cfg)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", np.Name, err)
		}
		if w.replay {
			tr.begin("wcet", "soak.BuildReplayPlan")
			cfg.Replay, err = soak.BuildReplayPlan(ctx, cfg)
			tr.end()
			if err != nil {
				return fmt.Errorf("%s: %w", np.Name, err)
			}
		}
		w.points = append(w.points, cfg)
	}
	for _, p := range w.points {
		if _, err := boot(tr, "soak", p, campaignSeed(w.seed, 0)); err != nil {
			return err
		}
	}
	return nil
}

// boot starts a runner for cfg at seed, as worker 0.
func boot(tr *tracer, layer string, cfg soak.Config, seed uint64) (*soak.Runner, error) {
	cfg.Seed = seed
	tr.begin(layer, "soak.boot")
	defer tr.end()
	return soak.NewRunner(cfg, 0)
}

// campaign runs one campaign: every point for the op budget, from a
// campaign seed derived from the run seed. record folds the campaign's
// simulated statistics into the fixed-set aggregates.
func (w *soakWorkload) campaign(ctx context.Context, c int, tr *tracer, record bool) (campaignResult, error) {
	seed := campaignSeed(w.seed, c)
	h := fnv.New64a()
	var cr campaignResult
	runners := make([]*soak.Runner, len(w.points))
	for i, p := range w.points {
		if err := ctx.Err(); err != nil {
			return cr, err
		}
		rn, err := boot(tr, "soak", p, seed)
		if err != nil {
			return cr, fmt.Errorf("%s: %w", p.Label, err)
		}
		runners[i] = rn
		k := rn.Kernel()
		ops := newOpStream(seed, i)
		var nRun uint64
		var opNs int64
		failed := ""
		for op := 0; op < w.budget; op++ {
			kind := ops.next(rn)
			cyc := k.Now()
			tr.begin("kernel", opSpan[kind])
			err := rn.RunOp(kind)
			opNs += tr.end()
			nRun++
			if err != nil {
				return cr, fmt.Errorf("%s op %d (%v): %w", p.Label, op, kind, err)
			}
			if record {
				w.opCalls[kind]++
				w.opCycles[kind] += k.Now() - cyc
			}
			if err := k.InvariantFailure(); err != nil {
				// The campaign stops at its first violated invariant;
				// the op that broke it and the rest of the budget are
				// not completed.
				failed = err.Error()
				break
			}
			if tr != nil && w.checked && (op+1)%checkEvery == 0 {
				w.timeCheck(tr, k)
			}
		}
		completed := nRun
		if failed != "" {
			completed--
		}
		if tr != nil && (w.checked || w.replay) {
			w.opNs += opNs
			w.shadowNs += w.shadow(tr, i, seed, int(nRun))
		}
		if tr != nil && w.replay {
			w.timeReplays(tr, p.Replay, seed)
		}
		m := rn.ReplayMachine()
		st := rn.SentinelStatus()
		ks := k.Stats()
		cr.budget += uint64(w.budget)
		cr.issued += nRun
		cr.completed += completed
		cr.violations += st.Violations
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%d|%s|%d|%d|%d|%d|", p.Label, completed, k.Now(), ks.Syscalls,
			ks.Preemptions, ks.IRQsServiced, k.MaxLatency(), rn.Tracer().Emitted(), failed,
			st.Violations, st.NearMax, st.Captures, rn.Replays())
		fmt.Fprintf(h, "%x", foldLatencies(k.Latencies()))
		if m != nil {
			fmt.Fprintf(h, "|%+v", m.Counters())
		}
		if record {
			for _, l := range k.Latencies() {
				w.lat = append(w.lat, float64(l))
			}
			if w.maxSeen == nil {
				w.maxSeen = make([]uint64, len(w.points))
			}
			if k.MaxLatency() > w.maxSeen[i] {
				w.maxSeen[i] = k.MaxLatency()
			}
			w.preempts += ks.Preemptions
			w.irqs += ks.IRQsServiced
			w.events += rn.Tracer().Emitted()
			w.fixedOps += completed
			w.replays += rn.Replays()
			if m != nil {
				addCounters(&w.mc, m.Counters())
			}
		}
	}
	// The merge: one exposition snapshot over the campaign's runners.
	tr.begin("obs", "obs.snapshot")
	snap := obs.NewSnapshot()
	snap.Label = "perfbench"
	snap.Seed = seed
	snap.Workers = len(runners)
	for _, rn := range runners {
		snap.AddTracer(rn.Tracer())
		snap.Ops += rn.Ops()
		snap.SimCycles += rn.Kernel().Now()
	}
	err := snap.WriteJSON(h)
	if d := tr.end(); tr != nil {
		w.snapshotNs = append(w.snapshotNs, float64(d))
	}
	if err != nil {
		return cr, err
	}
	cr.digest = h.Sum64()
	return cr, nil
}

// timeCheck times one direct invariant.Check of the kernel's state,
// built from its public getters. It is attribution-only work.
func (w *soakWorkload) timeCheck(tr *tracer, k *kernel.Kernel) {
	st := &invariant.State{
		Objects:      k.Objects().Objects(),
		MDBHead:      k.Objects().MDBHead(),
		Sched:        k.Scheduler(),
		Current:      k.Current(),
		VSpace:       k.VSpace(),
		AtKernelExit: true,
	}
	tr.begin(benchLayer, "invariant.check")
	invariant.Check(st)
	tr.end()
	w.checkObjects += uint64(len(st.Objects))
}

// shadow re-runs a point's first n ops from the same seed with the
// workload's feature off (invariant checks on soak-checked, machine
// replay on soak-replay) and returns their RunOp host time, for
// invariant.share and machine.share. It is attribution-only work.
func (w *soakWorkload) shadow(tr *tracer, i int, seed uint64, n int) int64 {
	cfg := w.points[i]
	cfg.Kernel.CheckInvariants = false
	cfg.MachineReplay, cfg.Replay = false, nil
	rn, err := boot(tr, benchLayer, cfg, seed)
	if err != nil {
		return 0
	}
	ops := newOpStream(seed, i)
	var ns int64
	for op := 0; op < n; op++ {
		kind := ops.next(rn)
		tr.begin(benchLayer, "kernel.shadow")
		_ = rn.RunOp(kind) // timing only; the workload's run is the one gated
		ns += tr.end()
	}
	return ns
}

// timeReplays times Pollute + Run of the replay plan's trace on a fresh
// machine, replayCensus times. It is attribution-only work.
func (w *soakWorkload) timeReplays(tr *tracer, plan *soak.ReplayPlan, seed uint64) {
	m := machine.New(plan.HW)
	m.LoadImage(plan.Img)
	r := newRng(seed)
	for j := 0; j < replayCensus; j++ {
		tr.begin(benchLayer, "machine.replay")
		m.Pollute(uint32(r.next()))
		w.censusCycles += m.Run(plan.Trace)
		tr.end()
	}
}

func addCounters(dst *machine.Counters, c machine.Counters) {
	dst.Instructions += c.Instructions
	dst.Cycles += c.Cycles
	dst.L1IHits += c.L1IHits
	dst.L1IMisses += c.L1IMisses
	dst.L1DHits += c.L1DHits
	dst.L1DMisses += c.L1DMisses
	dst.L2Hits += c.L2Hits
	dst.L2Misses += c.L2Misses
	dst.Writebacks += c.Writebacks
	dst.Branches += c.Branches
}

// opSpan names each op kind's span.
var opSpan = func() [soak.NumOpKinds]string {
	var s [soak.NumOpKinds]string
	for k := soak.OpKind(0); k < soak.NumOpKinds; k++ {
		s[k] = "kernel." + k.String()
	}
	return s
}()

// simStats returns the fixed-set simulated statistics.
func (w *soakWorkload) simStats() simStats {
	var names []string
	var bounds []uint64
	for _, p := range w.points {
		names, bounds = append(names, p.Label), append(bounds, p.BoundCycles)
	}
	return matrixStats(names, bounds, w.maxSeen, w.lat)
}

// layerMetrics adds the soak layers' per-layer metrics.
func (w *soakWorkload) layerMetrics(tr *tracer, out metricSet) {
	for k := soak.OpKind(0); k < soak.NumOpKinds; k++ {
		name := "kernel." + k.String()
		out.add(name+".ns", "ns", tr.median(opSpan[k]))
		out.add(name+".calls", "count", float64(w.opCalls[k]))
		out.add(name+".sim_cycles", "cycles", ratio(float64(w.opCycles[k]), float64(w.opCalls[k])))
	}
	out.add("kernel.preemptions", "count", float64(w.preempts))
	out.add("kernel.irqs_serviced", "count", float64(w.irqs))

	share := ratio(float64(w.opNs-w.shadowNs), float64(w.opNs))
	checkShare, replayShare := 0.0, 0.0
	if w.checked {
		checkShare = share
	}
	if w.replay {
		replayShare = share
	}
	checks := tr.count("invariant.check")
	out.add("invariant.check_ns", "ns", tr.median("invariant.check"))
	out.add("invariant.objects_per_check", "count", ratio(float64(w.checkObjects), float64(checks)))
	out.add("invariant.ns_per_object", "ns", ratio(tr.total("invariant.check"), float64(w.checkObjects)))
	out.add("invariant.share", "ratio", checkShare)

	out.add("machine.share", "ratio", replayShare)
	out.add("machine.replay_ns", "ns", tr.median("machine.replay"))
	out.add("machine.replays", "count", float64(w.replays))
	out.add("machine.ns_per_kcycle", "ns", ratio(tr.total("machine.replay"), float64(w.censusCycles)/1e3))
	out.add("machine.sim_cycles_per_replay", "cycles", ratio(float64(w.mc.Cycles), float64(w.replays)))
	out.add("cache.l1i_hit_ratio", "ratio", ratio(float64(w.mc.L1IHits), float64(w.mc.L1IHits+w.mc.L1IMisses)))
	out.add("cache.l1d_hit_ratio", "ratio", ratio(float64(w.mc.L1DHits), float64(w.mc.L1DHits+w.mc.L1DMisses)))
	out.add("cache.writebacks_per_replay", "count", ratio(float64(w.mc.Writebacks), float64(w.replays)))
	out.add("pipeline.branches_per_replay", "count", ratio(float64(w.mc.Branches), float64(w.replays)))

	out.add("obs.events_per_op", "count", ratio(float64(w.events), float64(w.fixedOps)))
	out.add("obs.snapshot_ns", "ns", quantile(w.snapshotNs, 0.5))
}

// foldLatencies hashes a latency sequence (FNV-1a over the values).
func foldLatencies(lat []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range lat {
		h = (h ^ l) * 1099511628211
	}
	return h
}
