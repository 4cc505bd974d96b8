package machine

import (
	"fmt"
	"testing"

	"verikern/internal/arch"
	"verikern/internal/kimage"
)

// byteSrc decodes a fuzz input deterministically, yielding zero once
// exhausted so every prefix defines a complete workload.
type byteSrc struct {
	data []byte
	i    int
}

func (s *byteSrc) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

func (s *byteSrc) u32() uint32 {
	return uint32(s.next()) | uint32(s.next())<<8 | uint32(s.next())<<16 | uint32(s.next())<<24
}

// diffConfigs is the platform matrix the fuzz workloads draw from: the
// paper's evaluated configurations including pinned L1 ways and locked
// L2 kernel text.
func diffConfigs() []arch.Config {
	return []arch.Config{
		{L2Enabled: true, BranchPredictor: true, PinnedL1Ways: 1, L2LockedKernel: true},
		{L2Enabled: true, BranchPredictor: true},
		{L2Enabled: false, BranchPredictor: false, PinnedL1Ways: 1},
		{L2Enabled: false, BranchPredictor: false},
	}
}

// fuzzWorkload decodes (config, image, trace, priming) from raw bytes.
// It returns ok=false for inputs that cannot form a linkable image.
func fuzzWorkload(data []byte) (hw arch.Config, img *kimage.Image, trace []*kimage.Block, spec PrimeSpec, ok bool) {
	s := &byteSrc{data: data}
	hw = diffConfigs()[int(s.next())%4]

	img = kimage.New()
	dataSyms := make([]uint32, 4)
	for i := range dataSyms {
		dataSyms[i] = img.Data(fmt.Sprintf("d%d", i), 256)
	}
	nBlocks := 1 + int(s.next())%8
	f := &kimage.Func{Name: "f"}
	var all []*kimage.Block
	for bi := 0; bi < nBlocks; bi++ {
		b := &kimage.Block{Name: fmt.Sprintf("b%d", bi)}
		nInstr := 1 + int(s.next())%6
		for k := 0; k < nInstr; k++ {
			ins := kimage.Instr{Class: arch.ALU}
			sel := s.next()
			switch sel % 5 {
			case 1, 2:
				ins.Class = arch.Load
				ins.Data.Base = dataSyms[int(s.next())%len(dataSyms)] + uint32(s.next()%8)*4
			case 3:
				ins.Class = arch.Store
				ins.Data.Base = dataSyms[int(s.next())%len(dataSyms)]
				ins.Data.Write = true
			case 4:
				ins.Class = arch.Mul
			}
			if ins.Data.Base != 0 && sel&0x80 != 0 {
				// Strided reference: stride and count from the stream.
				ins.Data.Stride = uint32(1+s.next()%8) * 4
				ins.Data.Count = uint32(2 + s.next()%6)
			}
			b.Instrs = append(b.Instrs, ins)
		}
		if bi+1 < nBlocks {
			b.Succs = []string{fmt.Sprintf("b%d", bi+1)}
		}
		f.Blocks = append(f.Blocks, b)
		all = append(all, b)
	}
	img.AddFunc(f)
	if err := img.Link(); err != nil {
		return hw, nil, nil, spec, false
	}
	img.PinLines(all[0].Addr &^ 31)
	img.PinData(dataSyms[0])

	nTrace := 1 + int(s.next())%64
	for i := 0; i < nTrace; i++ {
		trace = append(trace, all[int(s.next())%len(all)])
	}
	spec = PrimeSpec{
		Seed:               s.u32(),
		Footprint:          s.next()&1 != 0,
		ReplacementAdvance: int(s.next() % 8),
		Mistrain:           s.next()&1 != 0,
	}
	return hw, img, trace, spec, true
}

// FuzzMachineDeterministic feeds arbitrary (block sequence, priming
// spec) workloads through two fresh machines built from the same input
// and requires identical cycle counts, PMU counters and final
// microarchitectural state: retirement depends on nothing but the
// image, the priming and the trace.
func FuzzMachineDeterministic(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x01\x05seL4 interrupt latency"))
	f.Add([]byte{2, 7, 0x81, 1, 3, 0x92, 2, 4, 0xff, 0xee, 0xdd, 0xcc, 1, 5, 1})
	f.Add([]byte{3, 4, 0x84, 0, 7, 2, 0x83, 3, 31, 9, 9, 9, 9, 1, 7, 1, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		hw, img, trace, spec, ok := fuzzWorkload(data)
		if !ok {
			t.Skip("unlinkable image")
		}
		run := func() (uint64, *Machine) {
			m := New(hw)
			m.LoadImage(img)
			m.Prime(Compile(m.Config(), trace), spec)
			return m.Run(trace), m
		}
		c1, m1 := run()
		c2, m2 := run()
		if c1 != c2 {
			t.Fatalf("cycles diverged: %d vs %d", c1, c2)
		}
		if a, b := m1.Counters(), m2.Counters(); a != b {
			t.Fatalf("counters diverged:\n%+v\n%+v", a, b)
		}
		if !m1.StateEqual(m2) {
			t.Fatal("identical inputs landed on different machine states")
		}
	})
}
