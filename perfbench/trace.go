package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// The layers spans are attributed to: the repository's modules, as the
// benchmark reaches them through their public functions. Time inside a
// call belongs to the layer whose function the benchmark called, minus
// the time of any span opened inside it. invariant, machine and measure
// have no row: the workloads reach them only from inside kernel, soak
// and probe calls, so their cost is measured by the differential shares
// (invariant.share, machine.share) and by attribution-only timings.
var layers = []string{"soak", "kernel", "obs", "probe", "wcet"}

// benchLayer holds attribution-only work: calls the untraced run does
// not make (direct invariant checks, unchecked or unreplayed shadow
// runs, machine and measure timings). Every span opened inside a bench
// span is bench too. Bench time is left out of the traced run's
// workload wall time, so it is in no layer's self share.
const benchLayer = "bench"

// maxSpans caps how many spans are kept for the Chrome trace file. Self
// times and durations are aggregated for every span, kept or not.
const maxSpans = 50_000

// span is one recorded call: name, layer, start and end (host ns since
// the tracer started) and the index of the enclosing span (-1 at top).
type span struct {
	name       string
	layer      string
	start, end int64
	parent     int32
}

type frame struct {
	idx   int32 // index into spans, or -1 once the cap is reached
	name  string
	layer string
	start int64
	child int64 // ns covered by direct child spans
}

// tracer records spans around the benchmark's calls into each layer.
// A nil *tracer is the untraced run: every method returns at once.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped uint64
	stack   []frame
	self    map[string]int64   // layer -> self ns
	calls   map[string]uint64  // layer -> spans closed
	durs    map[string]*sample // span name -> durations (ns)
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		self:  map[string]int64{},
		calls: map[string]uint64{},
		durs:  map[string]*sample{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; every begin is closed by one end.
func (t *tracer) begin(layer, name string) {
	if t == nil {
		return
	}
	if n := len(t.stack); n > 0 && t.stack[n-1].layer == benchLayer {
		layer = benchLayer
	}
	f := frame{idx: -1, name: name, layer: layer, start: t.now()}
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].idx >= 0 {
				parent = t.stack[i].idx
				break
			}
		}
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, layer: layer, start: f.start, parent: parent})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost span and returns its duration in ns.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	stop := t.now()
	d := stop - f.start
	if f.idx >= 0 {
		t.spans[f.idx].end = stop
	}
	t.self[f.layer] += d - f.child
	t.calls[f.layer]++
	s := t.durs[f.name]
	if s == nil {
		s = newSample(f.name)
		t.durs[f.name] = s
	}
	s.add(float64(d))
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	return d
}

// median returns the median duration (ns) of spans named name, 0 when
// none closed.
func (t *tracer) median(name string) float64 {
	if t == nil || t.durs[name] == nil {
		return 0
	}
	return t.durs[name].median()
}

// benchNs returns the bench layer's time so far (0 untraced).
func (t *tracer) benchNs() int64 {
	if t == nil {
		return 0
	}
	return t.self[benchLayer]
}

// count returns how many spans named name closed.
func (t *tracer) count(name string) uint64 {
	if t == nil || t.durs[name] == nil {
		return 0
	}
	return t.durs[name].n
}

// total returns the summed duration (ns) of spans named name.
func (t *tracer) total(name string) float64 {
	if t == nil || t.durs[name] == nil {
		return 0
	}
	return t.durs[name].sum
}

// chromeEvent is one Chrome trace_event "complete" slice.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome renders the kept spans as Chrome trace_event JSON
// (chrome://tracing, ui.perfetto.dev), timestamps in µs.
func (t *tracer) writeChrome(w io.Writer) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		ev := chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1,
		}
		if s.parent >= 0 {
			ev.Args = map[string]string{"parent": fmt.Sprintf("%d:%s", s.parent, t.spans[s.parent].name), "id": fmt.Sprint(i)}
		} else {
			ev.Args = map[string]string{"id": fmt.Sprint(i)}
		}
		evs = append(evs, ev)
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{evs, "ns", map[string]string{"dropped_spans": fmt.Sprint(t.dropped)}})
}

// sample keeps a bounded, deterministic reservoir of values plus their
// exact count and sum.
type sample struct {
	n   uint64
	sum float64
	v   []float64
	rng uint64
}

const reservoir = 1 << 15

func newSample(name string) *sample {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return &sample{rng: h | 1}
}

func (s *sample) add(x float64) {
	s.n++
	s.sum += x
	if len(s.v) < reservoir {
		s.v = append(s.v, x)
		return
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if j := s.rng % s.n; j < reservoir {
		s.v[j] = x
	}
}

func (s *sample) median() float64 { return quantile(s.v, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
