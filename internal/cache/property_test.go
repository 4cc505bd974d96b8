package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

func stateDiff(kind string, a int, sub string, b int, want, got any) string {
	return fmt.Sprintf("%s %d %s %d: reference %v, flat %v", kind, a, sub, b, want, got)
}

// propConfigs samples the configuration space: every policy, with and
// without locked ways, small and platform-sized geometries.
func propConfigs() []Config {
	return []Config{
		{Sets: 8, Ways: 4, LineBytes: 32, Policy: RoundRobin},
		{Sets: 8, Ways: 4, LineBytes: 32, Policy: RoundRobin, LockedWays: 1},
		{Sets: 8, Ways: 4, LineBytes: 32, Policy: RoundRobin, LockedWays: 2},
		{Sets: 8, Ways: 4, LineBytes: 32, Policy: PseudoRandom},
		{Sets: 8, Ways: 4, LineBytes: 32, Policy: PseudoRandom, LockedWays: 1},
		{Sets: 8, Ways: 4, LineBytes: 32, Policy: LRU},
		{Sets: 8, Ways: 4, LineBytes: 32, Policy: LRU, LockedWays: 2},
		{Sets: 128, Ways: 4, LineBytes: 32, Policy: RoundRobin, LockedWays: 1},
		{Sets: 512, Ways: 8, LineBytes: 32, Policy: RoundRobin, LockedWays: 4},
	}
}

// randAddr draws addresses from a space a few times larger than the
// cache so both conflict misses and re-hits are common.
func randAddr(rng *rand.Rand, cfg Config) uint32 {
	span := uint32(cfg.SizeBytes()) * 4
	return 0x1000 + rng.Uint32()%span
}

// applyRandomOp drives one random operation against both
// implementations, returning a description of the op for failure
// messages. The op vocabulary covers every mutating entry point,
// including the priming APIs the adversarial probe uses.
func applyRandomOp(rng *rand.Rand, cfg Config, pc *Cache, rc *refCache) string {
	switch k := rng.Intn(10); k {
	case 0, 1, 2, 3: // reads dominate
		a := randAddr(rng, cfg)
		got, want := pc.Access(a, false), rc.access(a, false)
		if got != want {
			return fmt.Sprintf("read %#x: flat %+v reference %+v", a, got, want)
		}
		return ""
	case 4, 5: // writes
		a := randAddr(rng, cfg)
		got, want := pc.Access(a, true), rc.access(a, true)
		if got != want {
			return fmt.Sprintf("write %#x: flat %+v reference %+v", a, got, want)
		}
		return ""
	case 6:
		a := randAddr(rng, cfg)
		got, want := pc.Pin(a), rc.pin(a)
		if got != want {
			return fmt.Sprintf("pin %#x: flat %v reference %v", a, got, want)
		}
		return ""
	case 7:
		if rng.Intn(4) == 0 {
			pc.InvalidateAll()
			rc.invalidateAll()
		} else {
			seed := rng.Uint32()
			pc.Pollute(seed)
			rc.pollute(seed)
		}
		return ""
	case 8:
		addrs := make([]uint32, 1+rng.Intn(8))
		for i := range addrs {
			addrs[i] = randAddr(rng, cfg)
		}
		seed := rng.Uint32()
		pc.DirtyFootprint(addrs, seed)
		rc.dirtyFootprint(addrs, seed)
		return ""
	default:
		n := rng.Intn(17)
		pc.AdvanceReplacement(n)
		rc.advanceReplacement(n)
		return ""
	}
}

// TestFlatMatchesReference drives long random op sequences through the
// flat implementation and the map-based reference and demands identical
// results, statistics and final state at every step boundary.
func TestFlatMatchesReference(t *testing.T) {
	for ci, cfg := range propConfigs() {
		t.Run(fmt.Sprintf("cfg%d_%s_lock%d", ci, cfg.Policy, cfg.LockedWays), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xC0FFEE + ci)))
			pc := New(cfg)
			rc := newRefCache(cfg)
			for step := 0; step < 4000; step++ {
				if msg := applyRandomOp(rng, cfg, pc, rc); msg != "" {
					t.Fatalf("step %d: %s", step, msg)
				}
				if step%257 == 0 {
					if ok, msg := rc.matches(pc); !ok {
						t.Fatalf("step %d: state diverged: %s\nflat state:\n%s", step, msg, pc.StateString())
					}
				}
			}
			if ok, msg := rc.matches(pc); !ok {
				t.Fatalf("final state diverged: %s", msg)
			}
		})
	}
}

// TestFingerprintEqualStates: equal observable states must compare
// Equal, Equal being the cache's observable-state fingerprint. Two
// caches driven by the same op sequence land in the same observable
// state even when dead state (the LFSR under non-pseudo-random
// policies) was parked differently beforehand.
func TestFingerprintEqualStates(t *testing.T) {
	for ci, cfg := range propConfigs() {
		rng := rand.New(rand.NewSource(int64(0xFACE + ci)))
		ops := make([]uint32, 600)
		for i := range ops {
			ops[i] = randAddr(rng, cfg)
		}
		replay := func(c *Cache) {
			c.Pollute(0x1234)
			c.AdvanceReplacement(3)
			for i, a := range ops {
				c.Access(a, i%3 == 0)
			}
		}
		a, b := New(cfg), New(cfg)
		if cfg.Policy != PseudoRandom {
			// The LFSR is dead state under these policies: clocking it
			// must not affect Equal.
			for i := 0; i < 7; i++ {
				b.stepLFSR()
			}
		}
		replay(a)
		replay(b)
		if !a.Equal(b) {
			t.Fatalf("cfg %d: same replay did not converge:\n%s\nvs\n%s", ci, a.StateString(), b.StateString())
		}
	}
}

// TestFingerprintCanonicalInvalid: a cache whose lines were filled and
// then invalidated is observably identical to a fresh one (under LRU,
// whose victim selection never moves the round-robin pointer), so it
// must compare Equal — stale content must not leak.
func TestFingerprintCanonicalInvalid(t *testing.T) {
	cfg := Config{Sets: 8, Ways: 4, LineBytes: 32, Policy: LRU}
	rng := rand.New(rand.NewSource(5))
	a, b := New(cfg), New(cfg)
	for i := 0; i < 300; i++ {
		b.Access(randAddr(rng, cfg), i%2 == 0)
	}
	b.InvalidateAll()
	if !a.Equal(b) {
		t.Fatalf("invalidated cache not equal to fresh:\n%s\nvs\n%s", a.StateString(), b.StateString())
	}
}
