package soak_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/konfig"
	"verikern/internal/soak"
)

var update = flag.Bool("update", false, "rewrite the invariant-failure golden")

// TestSoakInvariantsOn runs the benno+nopreempt point of the legacy
// soak matrix with the proof invariants checked at every kernel exit,
// seeds 1-10 × 2,500 ops, and asserts that no invariant breaks. The
// preempting points break mdb-depth after a preempted revoke (a known
// model defect), which TestInvariantFailureGolden pins instead.
func TestSoakInvariantsOn(t *testing.T) {
	const ops = 2500
	m, err := konfig.LegacySoakMatrix(arch.ARM1136ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range m {
		if np.Name != "benno+nopreempt" {
			continue
		}
		p, err := np.Point.Set("debug.check-invariants", "true")
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 10; seed++ {
			rn, err := soak.NewRunner(soak.Config{
				Label:  np.Name,
				Arch:   p.Arch,
				Seed:   seed,
				Kernel: p.KernelConfig(),
				Pinned: p.Pinned(),
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := rn.Step(ops); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if vs := rn.Kernel().Violations(); len(vs) != 0 {
				t.Fatalf("seed %d: %d violations, first: %s", seed, len(vs), vs[0])
			}
		}
		return
	}
	t.Fatal("no benno+nopreempt point in the legacy soak matrix")
}

// failureOps is how many ops each golden campaign runs.
const failureOps = 1000

// TestInvariantFailureGolden pins where each invariants-on campaign of
// the legacy soak matrix first breaks a proof invariant: seeds 1-10 ×
// the four matrix points, failureOps ops each, recording the first
// violating op, the first violation and the total violation count. The
// campaigns keep running past the first violation, so the count also
// covers the checker's behaviour on already-broken states. The known
// model defects recorded here (mdb-depth after a preempted revoke,
// queue-well-formed under lazy scheduling) are expected to change only
// when they are fixed, with the golden regenerated via -update.
func TestInvariantFailureGolden(t *testing.T) {
	m, err := konfig.LegacySoakMatrix(arch.ARM1136ID)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for seed := uint64(1); seed <= 10; seed++ {
		for _, np := range m {
			p, err := np.Point.Set("debug.check-invariants", "true")
			if err != nil {
				t.Fatal(err)
			}
			rn, err := soak.NewRunner(soak.Config{
				Label:  np.Name,
				Arch:   p.Arch,
				Seed:   seed,
				Kernel: p.KernelConfig(),
				Pinned: p.Pinned(),
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			k := rn.Kernel()
			firstOp := -1
			for op := 0; op < failureOps; op++ {
				// Step reports an op error or the kernel's (sticky)
				// invariant failure; only the former ends a campaign.
				if err := rn.Step(1); err != nil && k.InvariantFailure() == nil {
					t.Fatalf("seed %d %s op %d: %v", seed, np.Name, op, err)
				}
				if firstOp < 0 && len(k.Violations()) > 0 {
					firstOp = op
				}
			}
			vs := k.Violations()
			fmt.Fprintf(&got, "seed=%d point=%s violations=%d", seed, np.Name, len(vs))
			if firstOp >= 0 {
				fmt.Fprintf(&got, " first_op=%d first=%q", firstOp, vs[0].String())
			}
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "invariant_failures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("invariant failures differ from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
