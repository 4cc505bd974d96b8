// Package pipeline models the timing of the ARM1136's 8-stage in-order
// pipeline as used by both the simulator and the WCET analyser: base
// per-class instruction costs and the branch cost under the two
// predictor configurations the paper evaluates (§5.1, §6.4).
//
// With the predictor disabled — the configuration the paper analyses —
// every branch costs a constant 5 cycles. With it enabled, branches
// cost between 0 and 7 cycles depending on prediction outcome; the
// package provides a small dynamic predictor (2-bit saturating counters
// plus a branch target buffer) to simulate that behaviour for the
// measurement runs of §6.4.
package pipeline

import "verikern/internal/arch"

// Predictor is a dynamic branch predictor: a table of 2-bit saturating
// counters indexed by branch address. The zero value is not usable;
// construct with NewPredictor.
type Predictor struct {
	enabled  bool
	counters []uint8
	mask     uint32
	hits     uint64
	misses   uint64

	// Branch outcome costs, taken from the backend the predictor was
	// constructed for.
	noPredict  uint64
	predicted  uint64
	mispredict uint64
}

// NewPredictor constructs a predictor with 2^bits entries for the
// default ARM1136 backend. If enabled is false, Branch always charges
// the constant no-predictor cost.
func NewPredictor(enabled bool, bits uint) *Predictor {
	return NewPredictorArch(arch.ARM1136, enabled, bits)
}

// NewPredictorArch constructs a predictor with 2^bits entries charging
// backend b's branch costs. On backends without a dynamic predictor
// (b.HasDynamicPredictor false) the predictor is forced disabled and
// every branch costs the backend's constant no-predict cost.
func NewPredictorArch(b *arch.Backend, enabled bool, bits uint) *Predictor {
	n := 1 << bits
	p := &Predictor{
		enabled:    enabled && b.HasDynamicPredictor,
		counters:   make([]uint8, n),
		mask:       uint32(n - 1),
		noPredict:  b.BranchNoPredict,
		predicted:  b.BranchPredicted,
		mispredict: b.BranchMispredict,
	}
	// Counters start weakly not-taken, so a cold predictor
	// mispredicts taken branches — the cold-cache measurement
	// scenarios of §6.4 see little benefit from the predictor.
	return p
}

// Enabled reports whether dynamic prediction is active.
func (p *Predictor) Enabled() bool { return p.enabled }

// Branch accounts one branch at addr with the actual direction taken,
// returning its cost in cycles and updating predictor state.
func (p *Predictor) Branch(addr uint32, taken bool) uint64 {
	if !p.enabled {
		return p.noPredict
	}
	idx := (addr >> 2) & p.mask
	ctr := &p.counters[idx]
	predictTaken := *ctr >= 2
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else {
		if *ctr > 0 {
			*ctr--
		}
	}
	if predictTaken == taken {
		p.hits++
		return p.predicted
	}
	p.misses++
	return p.mispredict
}

// Mistrain saturates the counter for the branch at addr in the
// direction opposite to `taken`, so the next Branch(addr, taken)
// mispredicts and pays the full 7-cycle penalty. Adversarial priming
// uses it to place the predictor in its worst state for a known path;
// the static analyser already assumes every branch mispredicts when the
// predictor is enabled (WorstBranchCost), so a mistrained run can never
// exceed the computed bound. No-op when prediction is disabled.
func (p *Predictor) Mistrain(addr uint32, taken bool) {
	if !p.enabled {
		return
	}
	idx := (addr >> 2) & p.mask
	if taken {
		p.counters[idx] = 0 // strongly not-taken: a taken branch mispredicts
	} else {
		p.counters[idx] = 3 // strongly taken: a not-taken branch mispredicts
	}
}

// Stats reports correct and incorrect predictions (zero when disabled).
func (p *Predictor) Stats() (correct, wrong uint64) { return p.hits, p.misses }

// Equal reports whether two predictors hold the same observable state.
func (p *Predictor) Equal(o *Predictor) bool {
	if p.enabled != o.enabled || len(p.counters) != len(o.counters) {
		return false
	}
	if !p.enabled {
		return true
	}
	for i := range p.counters {
		if p.counters[i] != o.counters[i] {
			return false
		}
	}
	return true
}

// Reset returns all counters to the cold state and zeroes statistics.
func (p *Predictor) Reset() {
	for i := range p.counters {
		p.counters[i] = 0
	}
	p.hits, p.misses = 0, 0
}

// WorstBranchCost returns the per-branch cost bound the static analyser
// must assume under a configuration on the default ARM1136 backend: the
// constant 5 cycles with the predictor disabled, or the 7-cycle
// misprediction bound with it enabled (the analyser cannot model
// predictor state, §5.1). Backend-aware callers use
// (*arch.Backend).WorstBranchCost.
func WorstBranchCost(predictorEnabled bool) uint64 {
	return arch.ARM1136.WorstBranchCost(predictorEnabled)
}
