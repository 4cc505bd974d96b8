package main

import (
	"context"
	"fmt"
	"hash/fnv"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/konfig"
	"verikern/internal/machine"
	"verikern/internal/measure"
	"verikern/internal/obs"
	"verikern/internal/passes"
	"verikern/internal/probe"
	"verikern/internal/wcet"
)

// probeBudget is the candidate-evaluation budget per point per campaign.
const probeBudget = 400

var probeEntries = []string{kbin.EntrySyscall, kbin.EntryInterrupt, kbin.EntryPageFault, kbin.EntryUndefined}

type probePoint struct {
	name  string
	point konfig.Point
	a     *wcet.Analyzer
	res   map[string]*wcet.Result
	bound uint64 // interrupt-response bound, as probe.Run reports it
}

// probeWorkload runs probe.Run over the four-point probe matrix, one
// configuration after another, sharing one analysis cache per run.
type probeWorkload struct {
	seed   uint64
	points []probePoint
	cache  *passes.Cache

	setupMetrics *obs.Metrics
	setups       int
	loopMetrics  *obs.Metrics

	// Fixed-set aggregates.
	observed []float64 // irq-response worst case per campaign and point
	maxSeen  []uint64
}

func newProbeWorkload(seed uint64) *probeWorkload {
	return &probeWorkload{seed: seed, loopMetrics: obs.NewMetrics()}
}

// analysePoint builds a point's kernel image and analyses the given
// entries through the pass pipeline.
func analysePoint(ctx context.Context, tr *tracer, p konfig.Point, entries []string, cache *passes.Cache, m *obs.Metrics) (*wcet.Analyzer, map[string]*wcet.Result, error) {
	tr.begin("wcet", "kbin.build")
	img, cons, err := kbin.Build(p.KbinOptions())
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	a := wcet.New(img, p.Hardware())
	a.AddConstraints(cons...)
	a.Cache = cache
	a.Metrics = m
	out := map[string]*wcet.Result{}
	for _, e := range entries {
		tr.begin("wcet", "wcet.analyze/"+e)
		res, err := a.AnalyzeContext(ctx, e)
		tr.end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e, err)
		}
		out[e] = res
	}
	return a, out, nil
}

// setup is the probe matrix's cold analysis: every entry of every point
// through a fresh pass cache, which the campaigns then share.
func (w *probeWorkload) setup(ctx context.Context, tr *tracer) error {
	m, err := konfig.LegacyProbeMatrix(arch.ARM1136ID)
	if err != nil {
		return err
	}
	if w.setupMetrics == nil {
		w.setupMetrics = obs.NewMetrics()
	}
	w.setups++
	w.cache = passes.NewCache(nil)
	w.points = w.points[:0]
	for _, np := range m {
		a, res, err := analysePoint(ctx, tr, np.Point, probeEntries, w.cache, w.setupMetrics)
		if err != nil {
			return fmt.Errorf("%s: %w", np.Name, err)
		}
		w.points = append(w.points, probePoint{name: np.Name, point: np.Point, a: a, res: res})
	}
	return nil
}

// campaign probes every point once at a campaign seed.
func (w *probeWorkload) campaign(ctx context.Context, c int, tr *tracer, record bool) (campaignResult, error) {
	seed := campaignSeed(w.seed, c)
	h := fnv.New64a()
	var cr campaignResult
	for i, p := range w.points {
		tr.begin("probe", "probe.run")
		rep, err := probe.Run(ctx, probe.Config{
			Label:   p.name,
			Seed:    seed,
			Budget:  probeBudget,
			Kernel:  p.point.KernelConfig(),
			Pinned:  p.point.Pinned(),
			Cache:   w.cache,
			Metrics: w.loopMetrics,
		})
		tr.end()
		if err != nil {
			return cr, err
		}
		cr.budget += probeBudget
		cr.violations += rep.Violations
		fmt.Fprintf(h, "%s|%d|%+v|%d|", rep.Label, rep.Violations, rep.Status, len(rep.Captures))
		for _, e := range rep.Entries {
			cr.issued += uint64(e.Evals)
			cr.completed += uint64(e.Evals)
			fmt.Fprintf(h, "%s,%d,%d,%d,%d,%s;", e.Name, e.ObservedMax, e.BoundCycles, e.Evals, e.Improvements, e.Best)
			if e.Name != "irq-response" {
				continue
			}
			w.points[i].bound = e.BoundCycles
			if record {
				w.observed = append(w.observed, float64(e.ObservedMax))
				if w.maxSeen == nil {
					w.maxSeen = make([]uint64, len(w.points))
				}
				if e.ObservedMax > w.maxSeen[i] {
					w.maxSeen[i] = e.ObservedMax
				}
			}
		}
		if tr != nil {
			w.census(tr, i, seed)
		}
	}
	cr.digest = h.Sum64()
	return cr, nil
}

// census times one primed replay per entry of a point through
// measure.Replayer.ReplayPrimed, with seeded priming specs. It is
// attribution-only work.
func (w *probeWorkload) census(tr *tracer, i int, seed uint64) {
	p := w.points[i]
	r := newRng(seed ^ 0x9E3779B97F4A7C15*uint64(i+1))
	var rp measure.Replayer
	for _, e := range probeEntries {
		spec := machine.PrimeSpec{
			Seed:               uint32(r.next()),
			Footprint:          r.intn(2) == 0,
			ReplacementAdvance: r.intn(16),
			Mistrain:           r.intn(2) == 0,
		}
		tr.begin(benchLayer, "measure.replay_primed")
		rp.ReplayPrimed(p.a.Img, p.a.HW, p.res[e].Trace, spec)
		tr.end()
	}
}

func (w *probeWorkload) simStats() simStats {
	var names []string
	var bounds []uint64
	for _, p := range w.points {
		names, bounds = append(names, p.name), append(bounds, p.bound)
	}
	return matrixStats(names, bounds, w.maxSeen, w.observed)
}

func (w *probeWorkload) layerMetrics(tr *tracer, out metricSet) {
	c := w.loopMetrics.Stats().Counters
	out.add("measure.replay_primed_ns", "ns", tr.median("measure.replay_primed"))
	out.add("probe.config_s", "s", tr.median("probe.run")/1e9)
	out.add("probe.machine_evals", "count", float64(c["probe.machine_evals"]))
	out.add("probe.kernel_evals", "count", float64(c["probe.kernel_evals"]))
	out.add("probe.improvement_ratio", "ratio", ratio(float64(c["probe.improvements"]), float64(c["probe.evals"])))
	wcetMetrics(tr, w.setupMetrics, w.setups, out)
}
