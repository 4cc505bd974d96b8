// Package cache models the set-associative caches of the simulated
// platform: the split 4-way L1 caches and the unified 8-way L2 of the
// ARM1136 (§5.1 of the paper). It supports the replacement policies the
// hardware offers (round-robin and pseudo-random), way-locking for
// cache pinning (§4), dirty-line tracking for write-back cost, and an
// abstract "must" cache used by the static analyser's conservative
// direct-mapped approximation.
//
// The metadata layout is flat: tags and per-line flags live in two
// contiguous slices indexed by set*Ways+way, with the replacement
// pointers in a third.
package cache

import (
	"fmt"
	"strings"
)

// Policy selects the replacement policy of a concrete cache.
type Policy uint8

// Replacement policies supported by the ARM1136 caches.
const (
	// RoundRobin cycles the victim way per set.
	RoundRobin Policy = iota
	// PseudoRandom picks the victim way from a small LFSR, as the
	// hardware's pseudo-random mode does.
	PseudoRandom
	// LRU evicts the least recently used way. The ARM1136 does not
	// implement LRU; it is provided as a reference policy for tests.
	LRU
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case PseudoRandom:
		return "pseudo-random"
	case LRU:
		return "lru"
	default:
		return "unknown"
	}
}

// Policies returns every modelled replacement policy, in definition
// order — the raw domain of the konfig "cache.replacement" key (the
// rule engine narrows it to the policies a deployment is verifiable
// under; see internal/konfig).
func Policies() []Policy { return []Policy{RoundRobin, PseudoRandom, LRU} }

// ParsePolicy resolves a policy name as printed by Policy.String.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// Config describes a concrete cache instance.
type Config struct {
	// Sets is the number of cache sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size; must be a power of two.
	LineBytes int
	// Policy is the replacement policy.
	Policy Policy
	// LockedWays reserves the first LockedWays ways of every set
	// for pinned lines: replacement never selects them, so lines
	// installed there by Pin stay resident forever (§4).
	LockedWays int
}

// SizeBytes returns the total cache capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

func (c Config) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets must be a positive power of two, got %d", c.Sets)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size must be a positive power of two, got %d", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways must be positive, got %d", c.Ways)
	}
	if c.LockedWays < 0 || c.LockedWays >= c.Ways {
		return fmt.Errorf("cache: locked ways must be in [0,%d), got %d", c.Ways, c.LockedWays)
	}
	return nil
}

// Per-line metadata bits. A line with flags 0 is invalid; dirty and
// pinned are only ever set on valid lines.
const (
	flagValid  uint8 = 1 << 0
	flagDirty  uint8 = 1 << 1
	flagPinned uint8 = 1 << 2
)

// Cache is a concrete set-associative cache. The zero value is not
// usable; construct with New.
type Cache struct {
	cfg Config
	// tags and flags hold set*Ways+way entries; rrNext holds the
	// round-robin victim pointer per set.
	tags   []uint32
	flags  []uint8
	rrNext []int32
	lfsr   uint32 // pseudo-random replacement state

	lineShift uint
	tagShift  uint
	setMask   uint32

	hits       uint64
	misses     uint64
	writebacks uint64
}

// New constructs a cache. It panics if the configuration is invalid;
// configurations are static platform descriptions, so an invalid one is
// a programming error.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:    cfg,
		tags:   make([]uint32, cfg.Sets*cfg.Ways),
		flags:  make([]uint8, cfg.Sets*cfg.Ways),
		rrNext: make([]int32, cfg.Sets),
		lfsr:   0xACE1,
	}
	c.lineShift = uint(log2(cfg.LineBytes))
	c.tagShift = c.lineShift + uint(log2(cfg.Sets))
	c.setMask = uint32(cfg.Sets - 1)
	for s := range c.rrNext {
		c.rrNext[s] = int32(cfg.LockedWays)
	}
	return c
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Set returns the set index for an address.
func (c *Cache) Set(addr uint32) int {
	return int((addr >> c.lineShift) & c.setMask)
}

// Tag returns the tag for an address.
func (c *Cache) Tag(addr uint32) uint32 {
	return addr >> c.tagShift
}

// stepLFSR clocks the 16-bit Fibonacci LFSR once.
func (c *Cache) stepLFSR() {
	bit := ((c.lfsr >> 0) ^ (c.lfsr >> 2) ^ (c.lfsr >> 3) ^ (c.lfsr >> 5)) & 1
	c.lfsr = (c.lfsr >> 1) | (bit << 15)
}

// Result describes the outcome of a cache access.
type Result struct {
	// Hit reports whether the line was resident.
	Hit bool
	// Writeback reports whether a dirty line was evicted to make
	// room for the new line.
	Writeback bool
}

// Access looks up addr, allocating the line on a miss. write marks the
// line dirty. It returns whether the access hit and whether the
// allocation evicted a dirty line.
func (c *Cache) Access(addr uint32, write bool) Result {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := set * c.cfg.Ways
	end := base + c.cfg.Ways

	for i := base; i < end; i++ {
		if c.flags[i]&flagValid != 0 && c.tags[i] == tag {
			c.hits++
			if write {
				c.flags[i] |= flagDirty
			}
			if c.cfg.Policy == LRU {
				c.touchLRU(base, i-base)
			}
			return Result{Hit: true}
		}
	}

	c.misses++
	victim := base + c.victim(set, base)
	wb := c.flags[victim]&(flagValid|flagDirty) == flagValid|flagDirty
	if wb {
		c.writebacks++
	}
	fl := flagValid
	if write {
		fl |= flagDirty
	}
	c.tags[victim], c.flags[victim] = tag, fl
	if c.cfg.Policy == LRU {
		c.touchLRU(base, victim-base)
	}
	return Result{Hit: false, Writeback: wb}
}

// touchLRU moves way w to the most-recently-used position (the end of
// the unlocked region). LRU order is encoded by position: lower
// unlocked indices are older.
func (c *Cache) touchLRU(base, w int) {
	if w < c.cfg.LockedWays {
		return
	}
	end := base + c.cfg.Ways
	t, fl := c.tags[base+w], c.flags[base+w]
	copy(c.tags[base+w:end], c.tags[base+w+1:end])
	copy(c.flags[base+w:end], c.flags[base+w+1:end])
	c.tags[end-1], c.flags[end-1] = t, fl
}

// victim selects the way (relative to the set) to replace. Locked ways
// are never selected.
func (c *Cache) victim(set, base int) int {
	lo := c.cfg.LockedWays
	n := c.cfg.Ways - lo
	// Prefer an invalid unlocked way.
	for w := lo; w < c.cfg.Ways; w++ {
		if c.flags[base+w]&flagValid == 0 {
			return w
		}
	}
	switch c.cfg.Policy {
	case RoundRobin:
		v := int(c.rrNext[set])
		if v < lo || v >= c.cfg.Ways {
			v = lo
		}
		next := v + 1
		if next >= c.cfg.Ways {
			next = lo
		}
		c.rrNext[set] = int32(next)
		return v
	case PseudoRandom:
		// 16-bit Fibonacci LFSR, as a stand-in for the
		// hardware's pseudo-random replacement source.
		c.stepLFSR()
		return lo + int(c.lfsr)%n
	case LRU:
		return lo // oldest unlocked position
	default:
		return lo
	}
}

// Pin installs addr's line into a locked way of its set and marks it
// pinned. It reports false if the set has no locked ways or all locked
// ways in the set are already pinned to other lines (the pin set does
// not fit). Pinning an already pinned line succeeds.
func (c *Cache) Pin(addr uint32) bool {
	if c.cfg.LockedWays == 0 {
		return false
	}
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.LockedWays; w++ {
		i := base + w
		if c.flags[i]&(flagValid|flagPinned) == flagValid|flagPinned && c.tags[i] == tag {
			return true
		}
	}
	for w := 0; w < c.cfg.LockedWays; w++ {
		i := base + w
		if c.flags[i]&flagValid == 0 || c.flags[i]&flagPinned == 0 {
			c.tags[i], c.flags[i] = tag, flagValid|flagPinned
			return true
		}
	}
	return false
}

// Pinned reports whether addr's line is currently pinned.
func (c *Cache) Pinned(addr uint32) bool {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.LockedWays; w++ {
		i := base + w
		if c.flags[i]&(flagValid|flagPinned) == flagValid|flagPinned && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Contains reports whether addr's line is resident (pinned or not).
func (c *Cache) Contains(addr uint32) bool {
	set := c.Set(addr)
	tag := c.Tag(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.flags[i]&flagValid != 0 && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// InvalidateAll drops every non-pinned line without writeback (as after
// a cache-clean-and-invalidate maintenance operation).
func (c *Cache) InvalidateAll() {
	for i := range c.flags {
		if c.flags[i]&flagPinned == 0 {
			c.tags[i], c.flags[i] = 0, 0
		}
	}
}

// Pollute fills every non-pinned way of every set with distinct dirty
// lines, the worst possible starting state for a measurement run
// (§5.4: "test programs pollute both the instruction and data caches
// with dirty cache lines"). The tag space used is derived from seed so
// different runs start from different (but always conflicting) states.
func (c *Cache) Pollute(seed uint32) {
	tagBase := 0x40000 | (seed & 0xFFFF)
	for s := 0; s < c.cfg.Sets; s++ {
		base := s * c.cfg.Ways
		for w := c.cfg.LockedWays; w < c.cfg.Ways; w++ {
			c.tags[base+w], c.flags[base+w] = tagBase+uint32(w)<<20, flagValid|flagDirty
		}
	}
}

// DirtyFootprint fills the non-pinned ways of exactly the sets that the
// given addresses map to with distinct dirty conflicting lines, leaving
// every other set untouched. It is the targeted counterpart of Pollute:
// an adversary that knows a victim's footprint evicts precisely the
// lines the victim will re-fetch, without paying to dirty sets the
// victim never visits. Tags are derived from seed and never collide
// with the footprint's own tags, so every listed address starts evicted
// and every eviction writes back.
func (c *Cache) DirtyFootprint(addrs []uint32, seed uint32) {
	tagBase := 0x40000 | (seed & 0xFFFF)
	for _, a := range addrs {
		set := c.Set(a)
		own := c.Tag(a)
		base := set * c.cfg.Ways
		for w := c.cfg.LockedWays; w < c.cfg.Ways; w++ {
			tag := tagBase + uint32(w)<<20
			if tag == own {
				tag ^= 1 << 19
			}
			c.tags[base+w], c.flags[base+w] = tag, flagValid|flagDirty
		}
	}
}

// AdvanceReplacement clocks the replacement state n steps without
// touching cache contents: the round-robin victim pointer of every set
// advances (skipping locked ways), and the pseudo-random LFSR shifts.
// Worst-case search uses it to sweep the victim-selection phase a run
// starts from — a dimension Pollute alone cannot reach, since it leaves
// replacement state wherever the previous run parked it.
func (c *Cache) AdvanceReplacement(n int) {
	if n <= 0 {
		return
	}
	lo := int32(c.cfg.LockedWays)
	span := int32(c.cfg.Ways) - lo
	for s := range c.rrNext {
		v := c.rrNext[s] - lo
		c.rrNext[s] = lo + (v+int32(n))%span
	}
	for i := 0; i < n; i++ {
		c.stepLFSR()
	}
}

// Equal reports whether two caches of identical configuration hold the
// same observable state: valid lines (tag and flags, position-exact),
// round-robin pointers (round-robin policy only) and LFSR
// (pseudo-random policy only). Statistics are not compared.
func (c *Cache) Equal(o *Cache) bool {
	if c.cfg != o.cfg {
		return false
	}
	for i := range c.flags {
		cv, ov := c.flags[i]&flagValid != 0, o.flags[i]&flagValid != 0
		if cv != ov {
			return false
		}
		if cv && (c.tags[i] != o.tags[i] || c.flags[i] != o.flags[i]) {
			return false
		}
	}
	if c.cfg.Policy == RoundRobin {
		for s := range c.rrNext {
			if c.rrNext[s] != o.rrNext[s] {
				return false
			}
		}
	}
	if c.cfg.Policy == PseudoRandom && c.lfsr != o.lfsr {
		return false
	}
	return true
}

// StateString renders the valid lines and replacement state compactly,
// for differential-test failure messages.
func (c *Cache) StateString() string {
	var b strings.Builder
	for s := 0; s < c.cfg.Sets; s++ {
		base := s * c.cfg.Ways
		wrote := false
		for w := 0; w < c.cfg.Ways; w++ {
			i := base + w
			if c.flags[i]&flagValid == 0 {
				continue
			}
			if !wrote {
				fmt.Fprintf(&b, "set %d rr %d:", s, c.rrNext[s])
				wrote = true
			}
			fmt.Fprintf(&b, " w%d=%x/%x", w, c.tags[i], c.flags[i])
		}
		if wrote {
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "lfsr %x\n", c.lfsr)
	return b.String()
}

// Stats reports accumulated hit/miss/writeback counters.
func (c *Cache) Stats() (hits, misses, writebacks uint64) {
	return c.hits, c.misses, c.writebacks
}

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() {
	c.hits, c.misses, c.writebacks = 0, 0, 0
}

// CreditHits counts n hits that were resolved without a lookup: repeat
// accesses to a line the previous access left resident, which change
// no cache state under any policy.
func (c *Cache) CreditHits(n uint64) { c.hits += n }
