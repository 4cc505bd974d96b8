// Command perfbench is verikern's end-to-end benchmark. It drives the
// model through its public Go APIs from one process, in a closed loop
// with one worker: the soak matrix (plain, with machine replay, with
// invariant checking) and the adversarial probe matrix, all on the
// ARM1136 backend. An untraced run reports the end-to-end metrics; a
// traced run (--trace 1) times the benchmark's calls into each layer and
// reports per-layer metrics, self times and a Chrome trace file.
//
// Usage:
//
//	bash perfbench/run.sh --workload soak-plain --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. attempted counts the ops
// or evaluations issued. failed is always 0: an op that returns an error
// ends the run with exit code 1 before the line is printed. An invariant
// violation is not an op error: it ends its campaign early, and the
// budget left unspent shows in completed_frac.
// predictions.json records why each workload exists and which layer
// metric should move which end-to-end metric on which workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"verikern/internal/obs"
)

// Seeds: the default seed tunes and reports; the held-out seed is the
// one a later gain claim must also hold on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupsBefore is how many times a run sets up before its first
// campaign; it sets up once more after every campaign, and setup_s is
// the median of all of them. One setup takes 15-45 ms, so a burst of
// setups at the start would sample host noise over a second or so; the
// repetitions spread over the run sample it as the campaigns do. Each
// setup starts after a forced GC, so no earlier garbage is collected on
// its time.
const setupsBefore = 9

// workload is one benchmark workload.
type workload interface {
	// setup prepares the workload (analysis, plans, runner boot); it
	// is repeated and the last repetition's state is used.
	setup(ctx context.Context, tr *tracer) error
	// campaign runs campaign c; record folds its simulated statistics
	// into the fixed-set aggregates.
	campaign(ctx context.Context, c int, tr *tracer, record bool) (campaignResult, error)
	simStats() simStats
	layerMetrics(tr *tracer, out metricSet)
}

// campaignResult is one campaign's outcome. An op that leaves a
// violated invariant is issued but not completed, and ends its point's
// campaign: the rest of the budget is neither issued nor completed.
type campaignResult struct {
	budget     uint64 // op or evaluation budget
	issued     uint64 // ops or evaluations issued
	completed  uint64 // ops or evaluations completed
	violations uint64 // samples over their bound
	digest     uint64 // hash of the simulated statistics
}

// simStats are the fixed-set simulated statistics.
type simStats struct {
	bound uint64
	lat   []float64
	tight float64
}

// headline is the matrix row whose interrupt-response bound the paper's
// Table 2 reports.
const headline = "benno+preempt"

// matrixStats folds per-point results into the fixed-set statistics: the
// headline bound, and the lowest observed-max/bound ratio over the
// points that recorded a sample.
func matrixStats(names []string, bounds, maxSeen []uint64, lat []float64) simStats {
	s := simStats{lat: lat}
	for i, n := range names {
		if n == headline {
			s.bound = bounds[i]
		}
		if i < len(maxSeen) && maxSeen[i] > 0 {
			if t := float64(maxSeen[i]) / float64(bounds[i]); s.tight == 0 || t < s.tight {
				s.tight = t
			}
		}
	}
	return s
}

// spec describes a workload: its constructor and how many campaigns
// form its fixed, seed-determined set.
type spec struct {
	fixed int
	make  func(seed uint64) workload
}

var workloads = map[string]spec{
	"soak-plain":   {12, func(s uint64) workload { return newSoakWorkload("plain", s) }},
	"soak-replay":  {12, func(s uint64) workload { return newSoakWorkload("replay", s) }},
	"soak-checked": {40, func(s uint64) workload { return newSoakWorkload("checked", s) }},
	"probe":        {8, func(s uint64) workload { return newProbeWorkload(s) }},
}

func main() {
	name := flag.String("workload", "soak-plain", "workload: soak-plain, soak-replay, soak-checked or probe")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 10, "measured seconds (the fixed campaign set always completes)")
	traced := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the end-to-end run")
	outDir := flag.String("out-dir", ".bench_build", "directory for the Chrome trace file")
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(context.Background(), *name, sp, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	digest uint64 // the fixed campaign set's simulated-statistics digest
}

// run executes one benchmark run and prints its human report.
func run(ctx context.Context, name string, sp spec, seed uint64, wall time.Duration, traced bool, outDir string) (*result, error) {
	w := sp.make(seed)
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	tr.begin("run", "run")
	var setups, setupsWall []float64
	setup := func() error {
		runtime.GC()
		t, cpu := time.Now(), cpuSeconds()
		tr.begin("run", "setup")
		err := w.setup(ctx, tr)
		tr.end()
		setups = append(setups, cpuSeconds()-cpu)
		setupsWall = append(setupsWall, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		return nil
	}
	for i := 0; i < setupsBefore; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	var (
		alloc      uint64 // heap bytes allocated by campaigns
		ms0, ms1   runtime.MemStats
		rates      []float64 // per campaign, per wall second
		cpuRates   []float64 // per campaign, per process CPU second
		total      campaignResult
		fixed      campaignResult // the fixed campaign set
		digests    []uint64
		tracedNet  []int64
		start      = time.Now()
		fixedSum   = newDigest()
		violations uint64
	)
	for c := 0; c < sp.fixed || time.Since(start) < wall; c++ {
		runtime.ReadMemStats(&ms0)
		t, cpu := time.Now(), cpuSeconds()
		bench := tr.benchNs()
		tr.begin("run", "campaign")
		cr, err := w.campaign(ctx, c, tr, c < sp.fixed)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", c, err)
		}
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		if tr != nil {
			tracedNet = append(tracedNet, int64(d)-(tr.benchNs()-bench))
		}
		cpuRates = append(cpuRates, float64(cr.completed)/(cpuSeconds()-cpu))
		rates = append(rates, float64(cr.completed)/d.Seconds())
		total.issued += cr.issued
		total.completed += cr.completed
		violations += cr.violations
		digests = append(digests, cr.digest)
		if c < sp.fixed {
			fixed.budget += cr.budget
			fixed.completed += cr.completed
			fixedSum.add(cr.digest)
		}
		if err := setup(); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	traceWall := tr.end()

	// Correctness gate: no sample over its bound, and the simulated
	// statistics identical across the untraced run, the traced run and a
	// repeat at the same seed.
	var problems []string
	if violations > 0 {
		problems = append(problems, fmt.Sprintf("%d samples exceeded their bound", violations))
	}
	// The traced run repeats its first campaigns untraced, which also
	// times the tracing overhead; the untraced run repeats campaign 0
	// both ways.
	type repeat struct {
		c  int
		tr *tracer
	}
	repeats := []repeat{{0, nil}, {0, newTracer()}}
	if traced {
		repeats = repeats[:0]
		for c := 0; c < min(overheadCampaigns, len(digests)); c++ {
			repeats = append(repeats, repeat{c, nil})
		}
	}
	var refNs []int64 // the traced run's untraced repeats
	for _, r := range repeats {
		t := time.Now()
		cr, err := w.campaign(ctx, r.c, r.tr, false)
		if err != nil {
			return nil, fmt.Errorf("repeat of campaign %d: %w", r.c, err)
		}
		refNs = append(refNs, int64(time.Since(t)))
		if cr.digest != digests[r.c] {
			problems = append(problems, fmt.Sprintf("campaign %d: digest %016x (traced=%v) != %016x (traced=%v)",
				r.c, cr.digest, r.tr != nil, digests[r.c], traced))
		}
	}

	ss := w.simStats()
	out := metricSet{}
	fmt.Printf("perfbench %s seed=%d trace=%v: %d campaigns (%d fixed) in %.2fs\n",
		name, seed, traced, len(rates), sp.fixed, elapsed.Seconds())
	fmt.Printf("digest %016x (fixed campaign set)\n", fixedSum.sum())
	if !traced {
		out.add("ops_per_cpu_s", "1/s", quantile(cpuRates, 0.5))
		out.add("setup_s", "s", quantile(setups, 0.5))
		out.add("alloc_b_per_op", "B", float64(alloc)/float64(total.completed))
		out.add("completed_frac", "ratio", float64(fixed.completed)/float64(fixed.budget))
		out.add("irq_p99_cycles", "cycles", quantile(ss.lat, 0.99))
		out.add("tightness", "ratio", ss.tight)
		// Printed, not gated: constant across seeds by construction.
		printPaperReference(ss.bound)
		fmt.Printf("irq_p50_cycles %.0f cycles over %d samples of the fixed set; no metric other than irq_bound_cycles has a paper reference\n",
			quantile(ss.lat, 0.5), len(ss.lat))
		fmt.Printf("setup wall %.6g s (median of %d)\n", quantile(setupsWall, 0.5), len(setupsWall))
		fmt.Printf("ops_per_s %.6g 1/s (per wall second, median campaign)\n", quantile(rates, 0.5))
		fmt.Printf("failed_frac %.6f (op budget left unspent when an invariant violation ends a campaign)\n",
			1-float64(fixed.completed)/float64(fixed.budget))
	} else {
		for _, n := range layerMetricNames() {
			out.add(n.name, n.unit, 0)
		}
		w.layerMetrics(tr, out)
		traceReport(os.Stdout, tr, traceWall, tracedNet, refNs, out)
		path := filepath.Join(outDir, "trace-"+name+".json")
		if err := writeTrace(tr, path); err != nil {
			return nil, err
		}
		fmt.Printf("span file %s (Chrome trace_event JSON, %d spans kept, %d dropped)\n", path, len(tr.spans), tr.dropped)
	}
	for _, n := range out.names() {
		fmt.Printf("  %-36s %16.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	for _, p := range problems {
		fmt.Printf("CORRECTNESS: %s\n", p)
	}
	return &result{Correct: len(problems) == 0, Attempted: total.issued, Metrics: out, digest: fixedSum.sum()}, nil
}

// overheadCampaigns is how many campaigns the traced run also runs
// untraced, for the tracing overhead and the digest gate.
const overheadCampaigns = 2

// printPaperReference prints Table 2's after-changes bound (L2 off,
// 532 MHz) beside the model's.
func printPaperReference(bound uint64) {
	const sysUs, irqUs, mhz = 332.4, 23.2, 532.0
	us := float64(bound) / mhz
	ref := sysUs + irqUs
	fmt.Printf("irq_bound_cycles %d = %.1f µs at %.0f MHz; paper Table 2 (after changes, L2 off): %.1f µs syscall + %.1f µs interrupt = %.1f µs; model error %+.1f%%\n",
		bound, us, mhz, sysUs, irqUs, ref, (us-ref)/ref*100)
}

// traceReport adds the traced run's attribution: per-layer self time
// and calls, the share of wall time no layer span covers, and the
// tracing overhead. Shares are of the workload's wall time: the traced
// wall less the attribution-only bench time, so the layer shares and
// the unattributed share sum to 1.
func traceReport(w io.Writer, tr *tracer, traced int64, tracedNet, refNs []int64, out metricSet) {
	bench := tr.benchNs()
	wall := max(traced-bench, 1)
	out.add("trace.bench_share", "ratio", float64(bench)/float64(traced))
	fmt.Fprintf(w, "traced wall %.3fs, of which %.3fs attribution-only (bench); workload wall %.3fs, per-layer self time:\n",
		float64(traced)/1e9, float64(bench)/1e9, float64(wall)/1e9)
	var attributed int64
	for _, l := range layers {
		attributed += tr.self[l]
		share := float64(tr.self[l]) / float64(wall)
		out.add("trace."+l+".self_share", "ratio", share)
		out.add("trace."+l+".calls", "count", float64(tr.calls[l]))
		fmt.Fprintf(w, "  %-10s %10.4fs %7.2f%% %10d calls\n", l, float64(tr.self[l])/1e9, share*100, tr.calls[l])
	}
	un := float64(wall-attributed) / float64(wall)
	out.add("trace.unattributed_share", "ratio", un)
	var t, u int64
	for i := range refNs {
		if i < len(tracedNet) {
			t += tracedNet[i]
			u += refNs[i]
		}
	}
	overhead := float64(t)/float64(u) - 1
	out.add("trace.overhead", "ratio", overhead)
	fmt.Fprintf(w, "  %-10s %10.4fs %7.2f%%\n", "(none)", float64(wall-attributed)/1e9, un*100)
	fmt.Fprintf(w, "tracing overhead %+.2f%% over the first %d campaigns (bench time excluded)\n", overhead*100, len(refNs))
}

// cpuSeconds returns the process's user+system CPU time, garbage
// collection on other threads included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type metricName struct{ name, unit string }

// layerMetricNames lists every per-layer metric: each workload reports
// all of them, zero where it does not drive the layer.
func layerMetricNames() []metricName {
	set := metricSet{}
	newSoakWorkload("plain", 0).layerMetrics(nil, set)
	newProbeWorkload(0).layerMetrics(nil, set)
	traceReport(io.Discard, newTracer(), 1, nil, nil, set)
	var out []metricName
	for _, n := range set.names() {
		out = append(out, metricName{n, set[n].Unit})
	}
	return out
}

// wcetMetrics adds the analysis layer's metrics, per setup repetition:
// AnalyzeContext time per entry, the pass-stage timers, and the
// pipeline counters.
func wcetMetrics(tr *tracer, m *obs.Metrics, setups int, out metricSet) {
	n := float64(max(setups, 1))
	for _, e := range probeEntries {
		out.add("wcet."+e+".analyze_ms", "ms", tr.total("wcet.analyze/"+e)/n/1e6)
	}
	st := m.Stats()
	stage := map[string]float64{}
	for _, s := range st.Stages {
		stage[s.Name] += s.Duration.Seconds() * 1e3
	}
	for _, s := range []string{"cfg", "classify", "ipet", "ilp_solve", "reconstruct"} {
		out.add("wcet.stage."+s+"_ms", "ms", stage["wcet."+s]/n)
	}
	c := st.Counters
	out.add("ilp.pivots", "count", float64(c["ilp.pivots"])/n)
	out.add("classify.fixpoint_sweeps", "count", float64(c["classify.fixpoint_sweeps"])/n)
	out.add("passcache.hit_ratio", "ratio", ratio(float64(c["passcache.hits"]), float64(c["passcache.hits"]+c["passcache.misses"])))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rng is a splitmix64 generator: the benchmark's own seeded stream.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func campaignSeed(seed uint64, c int) uint64 {
	return newRng(seed ^ uint64(c)*0xA24BAED4963EE407).next()
}

// digest folds campaign digests in order.
type digest struct{ h uint64 }

func newDigest() *digest       { return &digest{h: 14695981039346656037} }
func (d *digest) add(v uint64) { d.h = (d.h ^ v) * 1099511628211 }
func (d *digest) sum() uint64  { return d.h }
