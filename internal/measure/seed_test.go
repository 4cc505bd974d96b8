package measure

import "testing"

// The seed-derivation chain is part of the reproducibility contract:
// every seeded campaign must derive the same pollution sequences
// run-to-run and release-to-release, or recorded artifacts
// (BENCH_soak.json, BENCH_tightness.json) stop being comparable. These
// goldens pin the derivations; changing them is a breaking change to
// every recorded artifact and must be deliberate.

func TestPolluteSeedGolden(t *testing.T) {
	cases := []struct {
		base uint64
		run  int
		want uint32
	}{
		{0, 0, 0x993d6596},
		{0, 1, 0xcfc1fb9e},
		{0, 2, 0x86cd1857},
		{12345, 7, 0x065426ac},
		{0xDEADBEEF, 0, 0x22165294},
	}
	for _, c := range cases {
		if got := PolluteSeed(c.base, c.run); got != c.want {
			t.Errorf("PolluteSeed(%d,%d) = %#x, want %#x", c.base, c.run, got, c.want)
		}
	}
}

func TestCampaignSeedGolden(t *testing.T) {
	cases := []struct {
		root  uint64
		label string
		want  uint64
	}{
		{1, "benno+preempt+pinned", 0xb54a33d3821dc720},
		{1, "benno+preempt", 0x0d854df67d5bf9f6},
		{1, "benno+nopreempt", 0xc169c2c3ee60d8b8},
		{1, "lazy", 0x6d9378001e01c7a8},
		{99, "benno+preempt", 0x802102f38fbedddb},
	}
	for _, c := range cases {
		if got := CampaignSeed(c.root, c.label); got != c.want {
			t.Errorf("CampaignSeed(%d,%q) = %#x, want %#x", c.root, c.label, got, c.want)
		}
	}
}

// TestCampaignSeedDisjoint: distinct labels or roots must give distinct
// bases, and the result is never zero (a zero base would collapse into
// the default campaign).
func TestCampaignSeedDisjoint(t *testing.T) {
	seen := map[uint64]string{}
	for _, root := range []uint64{0, 1, 2, 99, ^uint64(0)} {
		for _, label := range []string{"", "benno+preempt", "benno+nopreempt", "lazy", "warm", "cold"} {
			s := CampaignSeed(root, label)
			if s == 0 {
				t.Fatalf("CampaignSeed(%d,%q) = 0", root, label)
			}
			key := string(rune(root)) + "/" + label
			if prev, dup := seen[s]; dup {
				t.Fatalf("CampaignSeed collision: %q and %q both derive %#x", prev, key, s)
			}
			seen[s] = key
		}
	}
}
