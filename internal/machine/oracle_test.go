package machine

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kbin"
	"verikern/internal/kimage"
	"verikern/internal/obs"
	"verikern/internal/wcet"
)

// interp is the reference retirement loop that compiled programs must
// match: it retires a trace block by block, reading base costs, fetch
// addresses and TCM windows per instruction, resolving strided data
// addresses through per-trace execution indices and calling the
// predictor for every branch. It drives a Machine's caches, predictor,
// counters and tracer directly.
type interp struct {
	m *Machine
	// execIndex tracks, per instruction, how many times it has run
	// in the current trace, to resolve strided data references.
	execIndex map[*kimage.Block][]uint64
}

// execIndexFor returns (and advances) the execution index of
// instruction i in block b.
func (in *interp) execIndexFor(b *kimage.Block, i int) uint64 {
	if in.execIndex == nil {
		in.execIndex = make(map[*kimage.Block][]uint64)
	}
	idx := in.execIndex[b]
	if idx == nil {
		idx = make([]uint64, len(b.Instrs))
		in.execIndex[b] = idx
	}
	n := idx[i]
	idx[i] = n + 1
	return n
}

// execBlock retires one basic block; taken is the direction of its
// terminating branch.
func (in *interp) execBlock(b *kimage.Block, taken bool) uint64 {
	m := in.m
	var cycles uint64
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		m.counters.Instructions++
		cycles += m.b.BaseCost(ins.Class)
		if fa := b.InstrAddr(i); !m.cfg.InITCM(fa) {
			cycles += m.memAccess(m.l1i, fa, false)
		}
		if ins.Data.Base != 0 {
			n := in.execIndexFor(b, i)
			if da := ins.Data.Addr(n); !m.cfg.InDTCM(da) {
				cycles += m.memAccess(m.l1d, da, ins.Data.Write)
			}
		}
	}
	if b.EndsInBranch() {
		m.counters.Branches++
		last := b.Addr
		if n := len(b.Instrs); n > 0 {
			last = b.InstrAddr(n - 1)
		}
		cycles += m.bp.Branch(last, taken)
	}
	m.counters.Cycles += cycles
	return cycles
}

// run retires a trace in order, resetting the execution indices first,
// and emits the replay event.
func (in *interp) run(trace []*kimage.Block) uint64 {
	for _, idx := range in.execIndex {
		clear(idx)
	}
	var total uint64
	for i, b := range trace {
		total += in.execBlock(b, traceTaken(trace, i))
	}
	if t := in.m.tracer; t != nil {
		t.EmitBatch([]obs.Event{{
			TS:   in.m.counters.Cycles,
			Arg1: total,
			Arg2: uint64(len(trace)),
			Kind: obs.KindReplay,
			Op:   obs.OpReplay,
		}})
	}
	return total
}

// prime is Prime over a raw trace: footprint from
// kimage.TraceFootprint and branch directions from traceTaken.
func (in *interp) prime(trace []*kimage.Block, spec PrimeSpec) {
	m := in.m
	m.Pollute(spec.Seed)
	if spec.Footprint {
		code, data := kimage.TraceFootprint(trace)
		m.l1i.DirtyFootprint(code, spec.Seed^0x3333)
		m.l1d.DirtyFootprint(data, spec.Seed^0x6666)
		if m.l2 != nil {
			m.l2.DirtyFootprint(code, spec.Seed^0x9999)
			m.l2.DirtyFootprint(data, spec.Seed^0xCCCC)
		}
	}
	if spec.ReplacementAdvance > 0 {
		m.l1i.AdvanceReplacement(spec.ReplacementAdvance)
		m.l1d.AdvanceReplacement(spec.ReplacementAdvance)
		if m.l2 != nil {
			m.l2.AdvanceReplacement(spec.ReplacementAdvance)
		}
	}
	if spec.Mistrain {
		for i, b := range trace {
			if !b.EndsInBranch() {
				continue
			}
			last := b.Addr
			if n := len(b.Instrs); n > 0 {
				last = b.InstrAddr(n - 1)
			}
			m.bp.Mistrain(last, traceTaken(trace, i))
		}
	}
}

// pair drives one machine through the reference interpreter and one
// through a compiled program, from the same image.
type pair struct {
	ref, got *Machine
	in       *interp
	prog     *Program
	trace    []*kimage.Block
}

func newPair(img *kimage.Image, hw arch.Config, trace []*kimage.Block, prog *Program) *pair {
	mk := func() *Machine {
		m := New(hw)
		m.LoadImage(img)
		m.SetTracer(obs.NewTracer(64))
		return m
	}
	p := &pair{ref: mk(), got: mk(), prog: prog, trace: trace}
	p.in = &interp{m: p.ref}
	return p
}

// step runs both machines once and fails on any divergence: cycles,
// PMU counters, microarchitectural state or tracer events.
func (p *pair) step(t *testing.T, what string) {
	t.Helper()
	want := p.in.run(p.trace)
	got := p.got.Exec(p.prog)
	if got != want {
		t.Fatalf("%s: cycles %d, interpreter %d", what, got, want)
	}
	if a, b := p.got.Counters(), p.ref.Counters(); a != b {
		t.Fatalf("%s: counters diverged:\nprogram     %+v\ninterpreter %+v", what, a, b)
	}
	if !p.got.StateEqual(p.ref) {
		t.Fatalf("%s: machine state diverged from the interpreter's", what)
	}
	if a, b := p.got.tracer.Events(), p.ref.tracer.Events(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: tracer events diverged:\nprogram     %+v\ninterpreter %+v", what, a, b)
	}
}

// checkEquivalent runs the differential scenarios for one (trace,
// configuration): cold, polluted and every PrimeSpec dimension, each
// followed by a warm second run on the same machine.
func checkEquivalent(t *testing.T, img *kimage.Image, hw arch.Config, trace []*kimage.Block) {
	t.Helper()
	prog := Compile(hw, trace)
	p := newPair(img, hw, trace, prog)
	p.step(t, "cold")
	p.step(t, "cold/warm")

	p = newPair(img, hw, trace, prog)
	p.ref.Pollute(17)
	p.got.Pollute(17)
	p.step(t, "polluted")
	p.step(t, "polluted/warm")

	for _, spec := range []PrimeSpec{
		{Seed: 3},
		{Seed: 5, Footprint: true},
		{Seed: 7, ReplacementAdvance: 3},
		{Seed: 9, Mistrain: true},
		{Seed: 11, Footprint: true, ReplacementAdvance: 5, Mistrain: true},
	} {
		p = newPair(img, hw, trace, prog)
		p.in.prime(trace, spec)
		p.got.Prime(prog, spec)
		if !p.got.StateEqual(p.ref) {
			t.Fatalf("prime %+v: primed state diverged from the interpreter's", spec)
		}
		p.step(t, fmt.Sprintf("prime %+v", spec))
		p.step(t, fmt.Sprintf("prime %+v/warm", spec))
	}
}

// backendConfigs projects diffConfigs onto a backend: features the
// backend lacks are dropped and duplicates removed.
func backendConfigs(b *arch.Backend) []arch.Config {
	var out []arch.Config
	for _, c := range diffConfigs() {
		c.Arch = b.ID
		c.L2Enabled = c.L2Enabled && b.HasL2
		c.L2LockedKernel = c.L2LockedKernel && b.HasL2
		c.BranchPredictor = c.BranchPredictor && b.HasDynamicPredictor
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// tcmCut returns a TCM configuration whose instruction and data windows
// start at the median address of the trace's code and data footprint,
// so each window covers part of the trace and leaves the rest outside.
func tcmCut(t *testing.T, b *arch.Backend, trace []*kimage.Block) arch.Config {
	t.Helper()
	code, data := kimage.TraceFootprint(trace)
	slices.Sort(code)
	slices.Sort(data)
	hw := arch.Config{Arch: b.ID, TCMEnabled: true, L2Enabled: true, BranchPredictor: true}
	hw.ITCMBase = code[len(code)/2]
	if len(data) > 0 {
		hw.DTCMBase = data[len(data)/2]
	}
	if !hw.InITCM(code[len(code)/2]) || hw.InITCM(code[0]) {
		t.Fatalf("ITCM window at %#x does not cut the trace's code", hw.ITCMBase)
	}
	if len(data) > 1 && (!hw.InDTCM(data[len(data)/2]) || hw.InDTCM(data[0])) {
		t.Fatalf("DTCM window at %#x does not cut the trace's data", hw.DTCMBase)
	}
	if err := b.ValidateConfig(hw); err != nil {
		t.Fatal(err)
	}
	return hw
}

// TestProgramMatchesInterpreter replays the analysed worst-case trace
// of every entry of both kernel variants, on both backends, through a
// compiled program and through the reference interpreter, across the
// differential configurations plus a TCM configuration whose windows
// cut through the traced code and data.
func TestProgramMatchesInterpreter(t *testing.T) {
	for _, b := range []*arch.Backend{arch.ARM1136, arch.CVA6RT} {
		for _, mod := range []bool{false, true} {
			img, cons, err := kbin.Build(kbin.Options{Modernised: mod, Pinned: true, Arch: b.ID})
			if err != nil {
				t.Fatal(err)
			}
			for _, entry := range img.Entries {
				a := wcet.New(img, arch.Config{Arch: b.ID})
				a.AddConstraints(cons...)
				res, err := a.Analyze(entry)
				if err != nil {
					t.Fatalf("%s: %v", entry, err)
				}
				cfgs := backendConfigs(b)
				if b.HasTCM {
					cfgs = append(cfgs, tcmCut(t, b, res.Trace))
				}
				for _, hw := range cfgs {
					t.Run(fmt.Sprintf("%s/modern=%t/%s/%s", b.ID, mod, entry, hw.CanonicalKey()), func(t *testing.T) {
						checkEquivalent(t, img, hw, res.Trace)
					})
				}
			}
		}
	}
}

// TestExecPanicsOnConfigMismatch: a program only runs on a machine of
// the configuration it was compiled for.
func TestExecPanicsOnConfigMismatch(t *testing.T) {
	_, trace := buildLinear(t, 4)
	p := Compile(arch.Config{BranchPredictor: true}, trace)
	for name, f := range map[string]func(m *Machine){
		"Exec":  func(m *Machine) { m.Exec(p) },
		"Prime": func(m *Machine) { m.Prime(p, PrimeSpec{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a program compiled for another configuration", name)
				}
			}()
			f(New(arch.Config{}))
		}()
	}
}

// TestProgramSharedAcrossGoroutines: a compiled program is read-only,
// so machines on different goroutines may Prime and Exec one program
// at once (run under -race).
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	img, cons, err := kbin.Build(kbin.Options{Modernised: true, Pinned: true})
	if err != nil {
		t.Fatal(err)
	}
	hw := arch.Config{L2Enabled: true, BranchPredictor: true, PinnedL1Ways: 1}
	a := wcet.New(img, hw)
	a.AddConstraints(cons...)
	res, err := a.Analyze(kbin.EntryInterrupt)
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(hw, res.Trace)
	spec := PrimeSpec{Seed: 23, Footprint: true, ReplacementAdvance: 2, Mistrain: true}
	replay := func() []uint64 {
		m := New(hw)
		m.LoadImage(img)
		var out []uint64
		for i := 0; i < 8; i++ {
			m.Prime(prog, spec)
			out = append(out, m.Exec(prog), m.Exec(prog))
		}
		return out
	}
	want := replay()
	var wg sync.WaitGroup
	got := make([][]uint64, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = replay()
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want) {
			t.Errorf("goroutine %d: cycles %v, sequential %v", g, got[g], want)
		}
	}
}

// FuzzProgramEquivalence feeds arbitrary (block sequence, priming spec)
// workloads through the reference interpreter and a compiled program,
// and through Run's scratch program after a first Run on the same
// machine, requiring identical cycles, counters, state and events.
func FuzzProgramEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 3, 0, 0, 0})
	f.Add([]byte("\x01\x05seL4 interrupt latency"))
	f.Add([]byte{2, 7, 0x81, 1, 3, 0x92, 2, 4, 0xff, 0xee, 0xdd, 0xcc, 1, 5, 1})
	f.Add([]byte{3, 4, 0x84, 0, 7, 2, 0x83, 3, 31, 9, 9, 9, 9, 1, 7, 1, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		hw, img, trace, spec, ok := fuzzWorkload(data)
		if !ok {
			t.Skip("unlinkable image")
		}
		p := newPair(img, hw, trace, Compile(hw, trace))
		p.in.prime(trace, spec)
		p.got.Prime(p.prog, spec)
		p.step(t, "primed")
		p.step(t, "warm")

		// Run lowers into the machine's scratch program on every call;
		// the cold Run leaves a previous lowering behind.
		run := New(hw)
		run.LoadImage(img)
		ref := &interp{m: New(hw)}
		ref.m.LoadImage(img)
		for i := 0; i < 3; i++ {
			if i == 1 {
				run.Prime(Compile(hw, trace), spec)
				ref.prime(trace, spec)
			}
			if got, want := run.Run(trace), ref.run(trace); got != want {
				t.Fatalf("Run %d: %d cycles, interpreter %d", i, got, want)
			}
		}
		if a, b := run.Counters(), ref.m.Counters(); a != b {
			t.Fatalf("Run: counters diverged:\nRun         %+v\ninterpreter %+v", a, b)
		}
		if !run.StateEqual(ref.m) {
			t.Fatal("Run: machine state diverged from the interpreter's")
		}
	})
}
