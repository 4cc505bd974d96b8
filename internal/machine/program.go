package machine

import (
	"fmt"
	"math/bits"

	"verikern/internal/arch"
	"verikern/internal/kimage"
)

// Program is a block trace lowered once for one platform
// configuration. Compile resolves everything about the trace that does
// not depend on cache or predictor contents, so Exec only plays the
// accesses whose cost depends on machine state. A Program is read-only
// after Compile: any number of machines of its configuration may Exec
// or Prime it concurrently.
type Program struct {
	cfg arch.Config
	// base is the summed base cost of every instruction, plus the
	// constant cost of every branch when the predictor is off.
	base     uint64
	instrs   uint64
	branches uint64
	blocks   uint64
	// lineHits counts fetches folded onto the previous fetch's L1I
	// line; each is a certain hit.
	lineHits uint64
	// ops are the state-dependent accesses, in retirement order.
	ops []op
	// code and data are the trace's footprint from
	// kimage.TraceFootprint, for Prime.
	code, data []uint32
}

type opKind uint8

const (
	opFetch opKind = iota
	opLoad
	opStore
	opBranchNotTaken
	opBranchTaken
)

// op is one state-dependent access: an L1I fetch, an L1D load or
// store, or a predicted branch at addr.
type op struct {
	addr uint32
	kind opKind
}

// Config returns the platform configuration the program was compiled
// for.
func (p *Program) Config() arch.Config { return p.cfg }

// Compile lowers trace for configuration cfg. Each fold is exact for
// the machine model:
//   - base costs and instruction counts are summed;
//   - strided data addresses are resolved with per-trace execution
//     indices, and TCM-resident fetches and data accesses are dropped;
//   - a fetch on the L1I line of the previous fetch becomes a credited
//     hit: only the L1D, the L2 and the predictor are touched between
//     two fetches, the previous fetch left the line resident, and a
//     repeat hit changes no replacement state under any policy;
//   - with no dynamic predictor every branch costs the backend's
//     constant no-predict cost, which folds into the base cost.
//
// The program also keeps the trace footprint for Prime.
func Compile(cfg arch.Config, trace []*kimage.Block) *Program {
	p := new(Program)
	var c compiler
	c.lower(p, cfg, trace)
	p.code, p.data = kimage.TraceFootprint(trace)
	return p
}

// compiler holds the scratch state of lowering, reused across lowerings
// so a machine's Run reaches an allocation-free steady state.
type compiler struct {
	// execOff maps each block with a strided data reference to the
	// offset of its per-instruction execution counts in exec. Fixed
	// references touch one address whatever the count, so blocks
	// without strided ones are not tracked.
	execOff map[*kimage.Block]int
	exec    []uint64
}

// lower lowers trace into p, reusing p's op slice. It leaves the
// footprint empty: only Compile's programs are primed.
func (c *compiler) lower(p *Program, cfg arch.Config, trace []*kimage.Block) {
	if c.execOff == nil {
		c.execOff = make(map[*kimage.Block]int)
	}
	clear(c.execOff)
	c.exec = c.exec[:0]

	b := cfg.Backend()
	*p = Program{cfg: cfg, blocks: uint64(len(trace)), ops: p.ops[:0]}
	predicted := cfg.BranchPredictor && b.HasDynamicPredictor
	lineShift := uint(bits.TrailingZeros(uint(b.L1I.LineBytes)))
	var lastLine uint32
	haveLast := false
	for i, blk := range trace {
		off := -1
		for j := range blk.Instrs {
			ins := &blk.Instrs[j]
			p.base += b.BaseCost(ins.Class)
			if fa := blk.InstrAddr(j); !cfg.InITCM(fa) {
				if line := fa >> lineShift; haveLast && line == lastLine {
					p.lineHits++
				} else {
					p.ops = append(p.ops, op{addr: fa, kind: opFetch})
					lastLine, haveLast = line, true
				}
			}
			if ins.Data.Base == 0 {
				continue
			}
			var n uint64
			if !ins.Data.Fixed() {
				if off < 0 {
					off = c.execOffset(blk)
				}
				n = c.exec[off+j]
				c.exec[off+j] = n + 1
			}
			if da := ins.Data.Addr(n); !cfg.InDTCM(da) {
				k := opLoad
				if ins.Data.Write {
					k = opStore
				}
				p.ops = append(p.ops, op{addr: da, kind: k})
			}
		}
		p.instrs += uint64(len(blk.Instrs))
		if !blk.EndsInBranch() {
			continue
		}
		p.branches++
		if !predicted {
			p.base += b.BranchNoPredict
			continue
		}
		last := blk.Addr
		if n := len(blk.Instrs); n > 0 {
			last = blk.InstrAddr(n - 1)
		}
		k := opBranchNotTaken
		if traceTaken(trace, i) {
			k = opBranchTaken
		}
		p.ops = append(p.ops, op{addr: last, kind: k})
	}
}

// execOffset returns the offset of blk's execution counts in exec,
// allocating zeroed counts on first sight.
func (c *compiler) execOffset(blk *kimage.Block) int {
	off, ok := c.execOff[blk]
	if !ok {
		off = len(c.exec)
		c.execOff[blk] = off
		for range blk.Instrs {
			c.exec = append(c.exec, 0)
		}
	}
	return off
}

// traceTaken reports the direction of block i's terminating branch
// within a trace: not-taken only when control fell through to the first
// successor without an intervening call.
func traceTaken(trace []*kimage.Block, i int) bool {
	b := trace[i]
	if i+1 < len(trace) && len(b.Succs) > 0 && trace[i+1].Name == b.Succs[0] && b.Call == "" {
		return false
	}
	return true
}

// checkConfig panics unless p was compiled for the machine's
// configuration: a program lowered for other hardware folds the wrong
// TCM windows, line size and branch costs.
func (m *Machine) checkConfig(p *Program) {
	if p.cfg != m.cfg {
		panic(fmt.Sprintf("machine: program compiled for %s, machine is %s",
			p.cfg.CanonicalKey(), m.cfg.CanonicalKey()))
	}
}
