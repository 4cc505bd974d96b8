// Package arch describes the simulated evaluation platform: a 532 MHz
// ARM1136-class CPU on a KZM-like board, as used by the paper
// (Blackham, Shi & Heiser, EuroSys 2012, §5.1).
//
// The package is purely descriptive: it defines instruction classes,
// cache geometries, memory latencies and the platform address map that
// the timing simulator (internal/machine), the synthetic kernel binary
// (internal/kimage) and the static WCET analyser (internal/wcet) all
// share. Keeping the description in one place guarantees the analyser
// and the simulator model the same hardware.
package arch

import "fmt"

// Class is the timing class of an instruction. The pipeline model
// assigns each class a base issue cost; loads and stores additionally
// pay the memory hierarchy.
type Class uint8

// Instruction timing classes of the modelled ARM1136 pipeline.
const (
	// ALU covers single-cycle data-processing instructions
	// (add, sub, mov, cmp, logical ops, shifts).
	ALU Class = iota
	// Mul covers multiply and multiply-accumulate.
	Mul
	// CLZ is the count-leading-zeros instruction used by the
	// scheduler bitmap optimisation (§3.2). It executes in a single
	// cycle but is kept distinct so benchmarks can count its uses.
	CLZ
	// Load is a data load (LDR/LDM of one register).
	Load
	// Store is a data store (STR/STM of one register).
	Store
	// Branch is any control transfer. With the branch predictor
	// disabled all branches cost a constant BranchCostNoPredict
	// cycles; with it enabled they cost between 0 and 7 cycles
	// depending on prediction outcome (§5.1).
	Branch
	// System covers coprocessor and system instructions (CP15 ops,
	// TLB/cache maintenance, mode changes).
	System
	numClasses
)

// String returns a short mnemonic for the class.
func (c Class) String() string {
	switch c {
	case ALU:
		return "alu"
	case Mul:
		return "mul"
	case CLZ:
		return "clz"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case System:
		return "system"
	default:
		return "unknown"
	}
}

// NumClasses reports the number of distinct instruction classes.
const NumClasses = int(numClasses)

// Base pipeline costs in cycles. Derived from the ARM1136 technical
// reference manual figures the paper relies on: most data-processing
// instructions single-issue, multiplies take two cycles, branches cost
// a constant 5 cycles with the predictor disabled (§5.1).
const (
	CostALU    = 1
	CostMul    = 2
	CostCLZ    = 1
	CostLoad   = 1 // plus memory hierarchy
	CostStore  = 1 // plus memory hierarchy
	CostSystem = 3

	// BranchCostNoPredict is the constant branch cost with the
	// predictor disabled: "all branches execute in a constant 5
	// cycles" (§5.1).
	BranchCostNoPredict = 5
	// BranchCostPredicted is the cost of a correctly predicted
	// branch with the predictor enabled.
	BranchCostPredicted = 1
	// BranchCostMispredict is the cost of a mispredicted branch
	// with the predictor enabled (the 0–7 cycle upper end).
	BranchCostMispredict = 7
)

// BaseCost returns the pipeline issue cost of an instruction class,
// excluding memory-hierarchy penalties and excluding branch resolution
// (which depends on the predictor configuration).
func BaseCost(c Class) uint64 {
	switch c {
	case ALU:
		return CostALU
	case Mul:
		return CostMul
	case CLZ:
		return CostCLZ
	case Load:
		return CostLoad
	case Store:
		return CostStore
	case Branch:
		return 0 // resolved by the predictor model
	case System:
		return CostSystem
	default:
		return CostALU
	}
}

// Latencies of the KZM board's memory hierarchy (§5.1): a 26-cycle L2
// hit, 60-cycle memory access with the L2 disabled and 96 cycles with
// it enabled.
const (
	LatencyL2Hit    = 26
	LatencyMemL2Off = 60
	LatencyMemL2On  = 96
)

// ClockHz is the simulated CPU clock: 532 MHz (i.MX31).
const ClockHz = 532_000_000

// CyclesToMicros converts a cycle count to microseconds on the
// simulated 532 MHz clock.
func CyclesToMicros(cycles uint64) float64 {
	return float64(cycles) / (ClockHz / 1e6)
}

// LineBytes is the cache line size used by all caches on the platform.
const LineBytes = 32

// CacheGeometry describes one cache.
type CacheGeometry struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size.
	LineBytes int
}

// Sets returns the number of cache sets.
func (g CacheGeometry) Sets() int {
	return g.SizeBytes / (g.Ways * g.LineBytes)
}

// WaySizeBytes returns the capacity of a single way; the analyser's
// conservative model treats the cache as a direct-mapped cache of this
// size (§5.1).
func (g CacheGeometry) WaySizeBytes() int {
	return g.SizeBytes / g.Ways
}

// Platform cache geometries (§5.1): split 16 KiB 4-way L1 caches and a
// unified 128 KiB 8-way L2.
var (
	L1IGeometry = CacheGeometry{SizeBytes: 16 * 1024, Ways: 4, LineBytes: LineBytes}
	L1DGeometry = CacheGeometry{SizeBytes: 16 * 1024, Ways: 4, LineBytes: LineBytes}
	L2Geometry  = CacheGeometry{SizeBytes: 128 * 1024, Ways: 8, LineBytes: LineBytes}
)

// Address map of the simulated platform. The kernel image is linked at
// KernelBase; kernel objects live above KernelHeapBase; user images at
// UserBase. The precise values only matter in that they determine
// cache-set mappings, exactly as the link address did for the paper's
// measured binary.
const (
	KernelBase     uint32 = 0xF000_0000
	KernelHeapBase uint32 = 0xF010_0000
	KernelStack    uint32 = 0xF00F_F000
	UserBase       uint32 = 0x0000_8000
	// KernelWindowBytes is the amount of the page directory that
	// holds kernel global mappings and must be copied into every
	// new page directory: 1 KiB on ARMv6 (§3.5).
	KernelWindowBytes = 1024
)

// Config selects the platform features that the paper varies in its
// evaluation (§5.1, §6.4), on a particular backend.
type Config struct {
	// Arch names the hardware backend the configuration applies to
	// (see Backend and the registry in backend.go). The empty string
	// selects the default ARM1136 backend, so the zero Config keeps
	// its historical meaning. Config stays a flat comparable value:
	// backends are resolved by name through the registry, never
	// embedded, so Configs remain usable as map keys.
	Arch string

	// L2Enabled enables the unified L2 cache. Disabling it lowers
	// the memory latency from 96 to 60 cycles.
	L2Enabled bool
	// BranchPredictor enables the dynamic branch predictor. The
	// paper's analysis disables it, making all branches cost a
	// constant 5 cycles.
	BranchPredictor bool
	// PinnedL1Ways is the number of L1 ways reserved for pinned
	// cache lines (0, 1, 2 or 3; the paper locks one way = 1/4 of
	// the cache, §4).
	PinnedL1Ways int
	// L2LockedKernel locks the entire kernel text into the L2
	// cache — the paper's future-work suggestion: "it would be
	// possible to lock the entire seL4 microkernel into the L2
	// cache. Doing so would drastically reduce execution time"
	// (§4, §6.4). Effective only with L2Enabled.
	L2LockedKernel bool

	// TCMEnabled converts one way of each L1 cache into
	// tightly-coupled memory — the ARM1136's alternative to
	// way-locking (§5.1: "the caches may also be used as
	// tightly-coupled memory (TCM), providing a region of memory
	// which is guaranteed to be accessible in a single cycle").
	// Accesses inside the ITCM/DTCM windows cost no memory-hierarchy
	// penalty; the L1 caches shrink to three ways.
	TCMEnabled bool
	// ITCMBase and DTCMBase are the 4 KiB instruction / data TCM
	// windows.
	ITCMBase, DTCMBase uint32
}

// TCMBytes is the size of each TCM window: one L1 way.
const TCMBytes = 4096

// InITCM reports whether addr falls in the instruction TCM window.
func (c Config) InITCM(addr uint32) bool {
	return c.TCMEnabled && addr >= c.ITCMBase && addr < c.ITCMBase+TCMBytes
}

// InDTCM reports whether addr falls in the data TCM window.
func (c Config) InDTCM(addr uint32) bool {
	return c.TCMEnabled && addr >= c.DTCMBase && addr < c.DTCMBase+TCMBytes
}

// MemLatency returns the main-memory access latency for the
// configuration on its backend.
func (c Config) MemLatency() uint64 {
	b := c.Backend()
	if c.L2Enabled && b.HasL2 {
		return b.LatMemL2On
	}
	return b.LatMemL2Off
}

// Backend resolves the configuration's hardware backend. The empty
// Arch resolves to the default ARM1136 backend; an unknown name panics
// — resolving it to anything else would silently time the wrong
// machine. User-facing code validates names with Lookup first.
func (c Config) Backend() *Backend {
	if c.Arch == "" {
		return ARM1136
	}
	return MustLookup(c.Arch)
}

// CanonicalKey renders the configuration as a stable "k=v" listing for
// content-addressed cache keys and konfig lattice hashes. The Arch
// field is normalised through the registry first, so the empty string
// and the explicit default backend id produce the same key (and share
// cache entries). Any new Config field must be added here: the key is
// the analyser's definition of "same hardware".
func (c Config) CanonicalKey() string {
	return fmt.Sprintf("arch=%s l2=%t bpred=%t pin=%d l2lock=%t tcm=%t itcm=%#x dtcm=%#x",
		c.Backend().ID, c.L2Enabled, c.BranchPredictor, c.PinnedL1Ways,
		c.L2LockedKernel, c.TCMEnabled, c.ITCMBase, c.DTCMBase)
}
