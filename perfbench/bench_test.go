package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestWorkloadsEmitNamedMetrics runs every workload at a short size, untraced
// and traced, and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units, passes the correctness gate,
// and yields the same simulated digest untraced, traced and repeated.
func TestWorkloadsEmitNamedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	ctx := context.Background()
	for _, wl := range bf.Workloads {
		sp, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("workload %q has no harness", wl.Name)
		}
		sp.fixed = 1
		var digests []uint64
		for _, traced := range []bool{false, true, false} {
			res, err := run(ctx, wl.Name, sp, 3, 0, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: correctness gate failed", wl.Name, traced)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", wl.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			digests = append(digests, res.digest)
		}
		if digests[0] != digests[1] || digests[0] != digests[2] {
			t.Errorf("%s: digests untraced/traced/repeat = %016x/%016x/%016x", wl.Name, digests[0], digests[1], digests[2])
		}
	}
}
