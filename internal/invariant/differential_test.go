package invariant

import (
	"math/rand"
	"reflect"
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

// gen decodes a byte string into generator choices; an exhausted
// string reads as zeros, so every input decodes to some state.
type gen struct {
	b []byte
	i int
}

func (g *gen) byte() byte {
	if g.i >= len(g.b) {
		return 0
	}
	g.i++
	return g.b[g.i-1]
}

// intn returns a choice in [0, n), n <= 256.
func (g *gen) intn(n int) int { return int(g.byte()) % n }

func (g *gen) u32() uint32 {
	return uint32(g.byte()) | uint32(g.byte())<<8 | uint32(g.byte())<<16 | uint32(g.byte())<<24
}

// genState builds a kernel state from b: an object set placed to hit
// the overlap checker's corners (nested untypeds, siblings sharing a
// start, SizeBits 0, footprints wrapping at 2^32, partial overlaps,
// misalignment, destroyed objects), plus run, endpoint and
// notification queues, a derivation list and address spaces that are
// mostly well-formed and sometimes corrupt, cyclic or cross-linked.
func genState(b []byte) *State {
	g := &gen{b: b}
	s := &State{AtKernelExit: g.intn(2) == 0}
	pl := &placer{g: g, tidy: g.intn(2) == 0, watermark: map[*kobj.Header]uint32{}}
	var (
		tcbs   []*kobj.TCB
		eps    []*kobj.Endpoint
		ntfns  []*kobj.Notification
		frames []*kobj.Frame
	)
	n := g.intn(48)
	for i := 0; i < n; i++ {
		var o kobj.Object
		t := kobj.ObjType(g.intn(6))
		switch t {
		case kobj.TypeUntyped:
			o = &kobj.Untyped{}
		case kobj.TypeTCB:
			tcb := &kobj.TCB{Name: "t" + string(rune('A'+i)), State: kobj.ThreadState(g.intn(6)), Prio: g.byte()}
			tcbs, o = append(tcbs, tcb), tcb
		case kobj.TypeEndpoint:
			ep := &kobj.Endpoint{Name: "e" + string(rune('A'+i)), State: kobj.EPState(g.intn(3))}
			eps, o = append(eps, ep), ep
		case kobj.TypeNotification:
			nt := &kobj.Notification{Name: "n" + string(rune('A'+i)), Pending: uint32(g.intn(3))}
			ntfns, o = append(ntfns, nt), nt
		default:
			f := &kobj.Frame{}
			frames, o = append(frames, f), f
		}
		h := o.Hdr()
		h.ID = uint64(i + 1)
		h.Type = t
		pl.place(h)
		if h.Type == kobj.TypeUntyped {
			pl.untypeds = append(pl.untypeds, h)
		}
		h.Destroyed = g.intn(24) == 0
		pl.placed = append(pl.placed, o)
	}
	s.Objects = pl.placed
	if g.intn(4) != 0 {
		s.Sched = genRunQueues(g, tcbs)
	}
	if len(tcbs) > 0 && g.intn(3) == 0 {
		s.Current = tcbs[g.intn(len(tcbs))]
	}
	for _, ep := range eps {
		ep.QHead, ep.QTail = genWaitQueue(g, tcbs)
		for t := ep.QHead; t != nil && g.intn(4) != 0; t = t.EPNext {
			t.WaitingOn = ep
			if t == ep.QTail {
				break
			}
		}
		if g.intn(5) == 0 && len(tcbs) > 0 {
			ep.AbortActive = g.intn(2) == 0
			ep.AbortWorker = pickTCB(g, tcbs)
			ep.AbortCursor = pickTCB(g, tcbs)
			ep.AbortEnd = pickTCB(g, tcbs)
		}
	}
	for _, nt := range ntfns {
		nt.QHead, nt.QTail = genWaitQueue(g, tcbs)
		for t := nt.QHead; t != nil && g.intn(4) != 0; t = t.EPNext {
			t.WaitingOnNtfn = nt
			if g.intn(6) == 0 && len(eps) > 0 {
				t.WaitingOn = eps[g.intn(len(eps))]
			}
			if t == nt.QTail {
				break
			}
		}
	}
	if g.intn(3) != 0 {
		s.MDBHead = genMDB(g, s.Objects)
	}
	if g.intn(3) == 0 {
		s.VSpace = genVSpace(g, frames)
	}
	return s
}

// placer picks object sizes and addresses. A tidy placer retypes
// children into untypeds at a rising watermark, so its states overlap
// only legally (nested untypeds, a child on its parent's start) unless
// two fresh regions collide; an untidy one also stacks siblings on the
// same start and places objects across others' boundaries.
type placer struct {
	g         *gen
	tidy      bool
	placed    []kobj.Object
	untypeds  []*kobj.Header
	watermark map[*kobj.Header]uint32
}

func (pl *placer) place(h *kobj.Header) {
	g := pl.g
	h.SizeBits = uint8(g.intn(16))
	if h.Type == kobj.TypeUntyped {
		h.SizeBits = uint8(g.intn(32))
	}
	switch g.intn(10) {
	case 0, 1, 2, 3: // inside an untyped, possibly nested
		if len(pl.untypeds) == 0 {
			break
		}
		p := pl.untypeds[g.intn(len(pl.untypeds))]
		h.SizeBits = p.SizeBits - uint8(g.intn(int(p.SizeBits)+1))
		if !pl.tidy {
			slots := uint32(1) << (p.SizeBits - h.SizeBits)
			h.PAddr = p.PAddr + (uint32(g.intn(8))%slots)<<h.SizeBits
			return
		}
		size := uint64(1) << h.SizeBits
		off := (uint64(pl.watermark[p]) + size - 1) &^ (size - 1)
		if off+size > uint64(1)<<p.SizeBits {
			break
		}
		h.PAddr = p.PAddr + uint32(off)
		pl.watermark[p] = uint32(off + size)
		return
	case 4: // sharing another object's start
		if pl.tidy || len(pl.placed) == 0 {
			break
		}
		h.PAddr = pl.placed[g.intn(len(pl.placed))].Hdr().PAddr
		return
	case 5: // a single byte
		h.SizeBits = 0
		h.PAddr = g.u32()
		return
	case 6: // partially overlapping another object, usually misaligned
		if pl.tidy || len(pl.placed) == 0 {
			break
		}
		o := pl.placed[g.intn(len(pl.placed))].Hdr()
		h.PAddr = o.PAddr + uint32(g.intn(256))<<g.intn(12)
		return
	case 7: // ending at or wrapping past 2^32
		if g.intn(16) == 0 {
			h.SizeBits = uint8(1 + g.intn(31))
			h.PAddr = -(uint32(1) << h.SizeBits) + uint32(g.intn(3))<<(h.SizeBits-1)
			return
		}
	}
	if pl.tidy && h.SizeBits > 24 {
		h.SizeBits = 24
	}
	h.PAddr = g.u32() &^ (uint32(1)<<h.SizeBits - 1)
}

func pickTCB(g *gen, tcbs []*kobj.TCB) *kobj.TCB {
	if i := g.intn(len(tcbs) + 1); i < len(tcbs) {
		return tcbs[i]
	}
	return nil
}

// genRunQueues queues some of tcbs, mostly at their own priority, and
// sometimes corrupts links, flags or the bitmap.
func genRunQueues(g *gen, tcbs []*kobj.TCB) sched.Scheduler {
	sc := sched.New(sched.Kind(g.intn(3)))
	rq := sc.Queues()
	prios := []int{int(g.byte()), int(g.byte()), int(g.byte())}
	for _, t := range tcbs {
		if g.intn(2) == 0 {
			continue
		}
		p := int(t.Prio)
		if g.intn(8) == 0 {
			p = prios[g.intn(len(prios))]
		}
		q := &rq.Q[p]
		t.SchedPrev, t.SchedNext = q.Tail, nil
		if q.Tail == nil {
			q.Head = t
		} else {
			q.Tail.SchedNext = t
		}
		q.Tail = t
		t.InRunQueue = g.intn(12) != 0
		rq.Level2[p>>5] |= 1 << (p & 31)
		rq.Top |= 1 << (p >> 5)
	}
	for k := g.intn(4); k > 0 && len(tcbs) > 0; k-- {
		t := tcbs[g.intn(len(tcbs))]
		switch g.intn(5) {
		case 0: // cycle or cross-link into any queue
			t.SchedNext = tcbs[g.intn(len(tcbs))]
		case 1:
			t.SchedPrev = pickTCB(g, tcbs)
		case 2:
			t.InRunQueue = !t.InRunQueue
		case 3:
			rq.Q[prios[g.intn(len(prios))]].Tail = pickTCB(g, tcbs)
		case 4:
			rq.Level2[g.intn(8)] ^= 1 << g.intn(32)
		}
	}
	return sc
}

// genWaitQueue links some of tcbs through EPNext/EPPrev (which an
// earlier queue may share) and sometimes closes a cycle or breaks a
// link.
func genWaitQueue(g *gen, tcbs []*kobj.TCB) (head, tail *kobj.TCB) {
	for k := g.intn(4); k > 0 && len(tcbs) > 0; k-- {
		t := tcbs[g.intn(len(tcbs))]
		t.EPPrev, t.EPNext = tail, nil
		if tail == nil {
			head = t
		} else {
			tail.EPNext = t
		}
		tail = t
	}
	if tail != nil {
		switch g.intn(8) {
		case 0:
			tail.EPNext = head
		case 1:
			head.EPPrev = pickTCB(g, tcbs)
		case 2:
			tail = pickTCB(g, tcbs)
		}
	}
	return head, tail
}

// genMDB links slots of a fresh CNode into a derivation list with
// random depths and caps to random objects.
func genMDB(g *gen, objs []kobj.Object) *kobj.Slot {
	cn := &kobj.CNode{Name: "cn", Slots: make([]kobj.Slot, 8)}
	for i := range cn.Slots {
		cn.Slots[i].CNode, cn.Slots[i].Index = cn, i
	}
	head := &kobj.Slot{CNode: cn, Index: -1}
	prev := head
	for k := g.intn(8); k > 0; k-- {
		sl := cn.Slot(g.intn(len(cn.Slots)))
		if sl == prev || sl.MDBNext != nil || sl.MDBPrev != nil {
			continue // keep the list acyclic
		}
		if len(objs) > 0 && g.intn(5) != 0 {
			sl.Cap = kobj.Cap{Type: kobj.CapEndpoint, Obj: objs[g.intn(len(objs))]}
		}
		sl.MDBDepth = prev.MDBDepth + g.intn(3) - 1
		sl.MDBPrev = prev
		if g.intn(10) == 0 {
			sl.MDBPrev = nil
		}
		prev.MDBNext, prev = sl, sl
	}
	return head
}

// genVSpace initialises up to two page directories and maps tables
// and frames into them directly, with skewed back-pointers and shadow
// entries.
func genVSpace(g *gen, frames []*kobj.Frame) vspace.Manager {
	design := vspace.ShadowDesign
	if g.intn(2) == 0 {
		design = vspace.ASIDDesign
	}
	mgr := vspace.New(design)
	e := &vspace.Env{Clock: clock(), Preempt: never}
	for k := g.intn(3); k > 0; k-- {
		pd := &kobj.PageDirectory{}
		pd.ID = uint64(1000 + k)
		if mgr.InitPD(e, pd) != nil {
			continue
		}
		pd.KernelWindowCopied = g.intn(4) != 0
		for m := g.intn(3); m > 0; m-- {
			di := g.intn(256) << 4
			pt := &kobj.PageTable{Parent: pd, ParentIndex: di}
			if g.intn(6) == 0 {
				pt.ParentIndex++
			}
			pd.Tables[di] = pt
			if pd.Shadow != nil && g.intn(6) != 0 {
				pd.Shadow[di] = &kobj.Slot{}
				pt.Shadow = make([]*kobj.Slot, kobj.PTEntries)
			}
			for f := g.intn(3); f > 0 && len(frames) > 0; f-- {
				pi := g.intn(kobj.PTEntries)
				fr := frames[g.intn(len(frames))]
				pt.Entries[pi] = fr
				fr.MappedIn = pd
				fr.MappedVaddr = uint32(di)<<20 | uint32(pi)<<12
				if g.intn(6) == 0 {
					fr.MappedVaddr += 1 << 12
				}
				if pt.Shadow != nil && g.intn(6) != 0 {
					pt.Shadow[pi] = &kobj.Slot{Cap: kobj.Cap{Type: kobj.CapFrame, Obj: frames[g.intn(len(frames))]}}
				}
			}
		}
	}
	return mgr
}

// checkAgainstOracle asserts that c reports exactly the oracle's
// violations, order included, on the state decoded from b, twice.
// It returns the violations.
func checkAgainstOracle(t *testing.T, c *Checker, b []byte) []Violation {
	t.Helper()
	s := genState(b)
	want := oracleCheck(s)
	// The second pass meets the same threads and objects again, so
	// scratch state left over from the first would show.
	for pass := 0; pass < 2; pass++ {
		if got := c.Check(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("input %x, pass %d:\nchecker: %v\noracle:  %v", b, pass, got, want)
		}
	}
	return want
}

// TestCheckEquivalence runs one reused Checker and the all-pairs
// oracle over random states, and checks that the generator still
// reaches the overlap checker's cases: states with and without illegal
// overlaps, with legal nesting, and with footprints wrapping at 2^32.
func TestCheckEquivalence(t *testing.T) {
	inputs := equivalenceInputs()
	runs := len(inputs)
	var c Checker
	var overlapping, nested, wrapping int
	for _, b := range inputs {
		for _, v := range checkAgainstOracle(t, &c, b) {
			if v.Invariant == "object-overlap" {
				overlapping++
				break
			}
		}
		objs := genState(b).Objects
	scan:
		for i, o := range objs {
			if o.Hdr().End() <= o.Hdr().PAddr {
				wrapping++
				break
			}
			for _, p := range objs[i+1:] {
				if kobj.Contains(o, p) || kobj.Contains(p, o) {
					nested++
					break scan
				}
			}
		}
	}
	t.Logf("of %d states: %d with illegal overlaps, %d nested, %d wrapping", runs, overlapping, nested, wrapping)
	if overlapping < runs/5 || overlapping > runs*4/5 || nested < runs/5 || wrapping < runs/100 || wrapping > runs/5 {
		t.Error("the state generator no longer covers the overlap cases")
	}
}

// equivalenceInputs returns TestCheckEquivalence's random inputs.
func equivalenceInputs() [][]byte {
	r := rand.New(rand.NewSource(1))
	inputs := make([][]byte, 3000)
	for i := range inputs {
		inputs[i] = make([]byte, 64+r.Intn(448))
		r.Read(inputs[i])
	}
	return inputs
}

// fuzzSeeds returns FuzzCheckEquivalence's seed corpus.
func fuzzSeeds() [][]byte {
	r := rand.New(rand.NewSource(2))
	var seeds [][]byte
	for i := 0; i < 16; i++ {
		b := make([]byte, 32*(i+1))
		r.Read(b)
		seeds = append(seeds, b)
	}
	return append(seeds, []byte{})
}

// FuzzCheckEquivalence is TestCheckEquivalence and TestExitFold under
// the fuzzer.
func FuzzCheckEquivalence(f *testing.F) {
	for _, b := range fuzzSeeds() {
		f.Add(b)
	}
	var c Checker
	f.Fuzz(func(t *testing.T, b []byte) {
		checkAgainstOracle(t, &c, b)
		checkExitFold(t, &c, b)
	})
}

// checkExitFold asserts the fact the kernel's exit fold rests on, on
// the state decoded from b: the check with AtKernelExit false reports
// the check with it true minus its KernelWindow entries, element for
// element. It returns how many KernelWindow entries were dropped.
func checkExitFold(t *testing.T, c *Checker, b []byte) int {
	t.Helper()
	s := genState(b)
	s.AtKernelExit = true
	exit := c.Check(s)
	var want []Violation
	for _, v := range exit {
		if v.Invariant != KernelWindow {
			want = append(want, v)
		}
	}
	s.AtKernelExit = false
	if got := c.Check(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("input %x:\npre-exit: %v\nexit without %s: %v", b, got, KernelWindow, want)
	}
	return len(exit) - len(want)
}

// TestExitFold runs checkExitFold over TestCheckEquivalence's inputs
// and the fuzz seed corpus, and checks that some of them break
// KernelWindow, so the fold has entries to drop.
func TestExitFold(t *testing.T) {
	var c Checker
	folded := 0
	for _, b := range append(equivalenceInputs(), fuzzSeeds()...) {
		if checkExitFold(t, &c, b) > 0 {
			folded++
		}
	}
	t.Logf("%d states break %s at exit", folded, KernelWindow)
	if folded == 0 {
		t.Errorf("no generated state breaks %s, so the fold is untested", KernelWindow)
	}
}
