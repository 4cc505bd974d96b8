// Package invariant encodes the seL4 proof invariants the paper's
// kernel modifications must preserve (§2.2) as executable checks:
// well-formed data structures (queues, derivation tree), object
// alignment and non-overlap, book-keeping consistency, and the new
// invariants each modification introduced — the Benno invariant (only
// runnable threads on run queues, §3.1), bitmap consistency (§3.2),
// endpoint-deletion forward progress (§3.3), badged-abort resume state
// (§3.4), kernel-window presence in every page directory (§3.5), and
// shadow back-pointer eagerness (§3.6).
//
// The kernel checks the suite at every preemption point and on both
// sides of every kernel exit; a violation is this repository's
// equivalent of a failed proof obligation. Three exact shortcuts keep
// that cheap. An exit that services no interrupt leaves the state
// unchanged between its pre-exit and exit checks, and KernelWindow is
// the only invariant gated on AtKernelExit, so the kernel runs the exit
// check once and derives the pre-exit list by dropping KernelWindow
// entries. A Checker skips the object checks (alignment, overlap, live
// set) when State.Layout names a layout it last found clean. And the
// run-queue, wait-queue and address-space checks each sit behind a
// screen: a map-free, allocation-free pass that only answers "clean?".
// The reporter that formats violations runs only when its screen
// rejects the state, so on the clean states that make up nearly all of
// the traffic no map is touched and nothing is formatted. Each screen
// is sound (a state it passes is one its reporter finds nothing in),
// so the violation lists are those of the reporters alone.
package invariant

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"verikern/internal/kobj"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

// KernelWindow names the one invariant checked only at kernel exit
// (State.AtKernelExit): every page directory holds the kernel window.
// Without it, a check with AtKernelExit false reports exactly the
// check with it true, minus the KernelWindow entries.
const KernelWindow = "kernel-window"

// Violation is one failed invariant.
type Violation struct {
	// Invariant names the failed check.
	Invariant string
	// Detail says what was inconsistent.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// State is the kernel state handed to the checker.
type State struct {
	// Objects is the live object set (from kobj.Manager).
	Objects []kobj.Object
	// MDBHead is the derivation-tree sentinel.
	MDBHead *kobj.Slot
	// Sched is the active scheduler.
	Sched sched.Scheduler
	// Current is the running thread (nil = idle).
	Current *kobj.TCB
	// VSpace is the active address-space manager.
	VSpace vspace.Manager
	// AtKernelExit strengthens the checks that only need to hold on
	// exit (KernelWindow).
	AtKernelExit bool
	// Layout is the generation of Objects' layout
	// (kobj.Manager.Layout), or zero when unknown. A Checker skips
	// the object checks when it last found this generation clean.
	Layout uint64
}

// Check runs every invariant and returns all violations (empty when
// consistent). It borrows a Checker from a pool, so repeated calls
// reuse scratch space as a kept Checker does, and it is safe for
// concurrent use.
func Check(s *State) []Violation {
	c := checkers.Get().(*Checker)
	defer checkers.Put(c)
	return c.Check(s)
}

var checkers = sync.Pool{New: func() any { return new(Checker) }}

// Checker runs the invariant suite with reusable scratch space: once
// its buffers have grown to a state's size, checking a consistent
// state allocates nothing. Its clean path is map-free: the screens walk
// the queues and address spaces directly, over a typed index of the
// live objects kept per layout generation, and the map-based reporters
// run only on states a screen rejects. The zero value is ready to use.
// A Checker is not safe for concurrent use.
type Checker struct {
	out []Violation

	// Overlap sweep scratch (checkObjects).
	spans  []span
	active []span
	pairs  []pair

	// queued maps each run-queued thread to the priority whose walk
	// first reached it; inQueue is the membership of the endpoint or
	// notification queue being walked. Only the reporters use them.
	queued  map[*kobj.TCB]int
	inQueue map[*kobj.TCB]bool

	// cleanLayout is the last non-zero State.Layout whose object
	// checks found nothing, or zero.
	cleanLayout uint64

	// The typed index: State.Objects' threads, endpoints and
	// notifications, each in Objects order, as of State.Layout
	// indexLayout (rebuilt on every call when that is zero).
	tcbs        []*kobj.TCB
	eps         []*kobj.Endpoint
	ntfns       []*kobj.Notification
	indexLayout uint64
}

// span is one object's physical footprint [start, end), whether it is
// an untyped, and its index in State.Objects.
type span struct {
	start, end uint32
	untyped    bool
	idx        int
}

// pair is an illegally overlapping pair of object indices, i < j.
type pair struct{ i, j int }

// Check runs every invariant over s and returns all violations (empty
// when consistent). The Checker keeps no reference to the returned
// slice.
func (c *Checker) Check(s *State) []Violation {
	if c.queued == nil {
		c.queued = make(map[*kobj.TCB]int)
		c.inQueue = make(map[*kobj.TCB]bool)
	}
	c.out = nil
	// The object checks read only the layout, so a layout found clean
	// stays clean. A broken one is re-checked, so it reports again.
	if s.Layout == 0 || s.Layout != c.cleanLayout {
		c.checkObjects(s)
		c.cleanLayout = 0
		if len(c.out) == 0 {
			c.cleanLayout = s.Layout
		}
	}
	c.index(s)
	// Each reporter runs, in the suite's order, only when its screen
	// rejects the state; a screen passes only states its reporter
	// finds nothing in.
	if !runQueuesClean(s, c.tcbs) {
		c.checkRunQueues(s)
	}
	if !waitQueuesClean(c.eps, c.ntfns) {
		c.checkEndpoints(s)
		c.checkNotifications(s)
	}
	c.checkMDB(s)
	if !vspaceClean(s) {
		c.checkVSpace(s)
	}
	out := c.out
	c.out = nil
	return out
}

// index brings the typed index up to date with s.Objects, rebuilding it
// in one pass unless s.Layout names the layout it was built from.
func (c *Checker) index(s *State) {
	if s.Layout != 0 && s.Layout == c.indexLayout {
		return
	}
	c.indexLayout = s.Layout
	c.tcbs, c.eps, c.ntfns = c.tcbs[:0], c.eps[:0], c.ntfns[:0]
	for _, o := range s.Objects {
		switch o := o.(type) {
		case *kobj.TCB:
			c.tcbs = append(c.tcbs, o)
		case *kobj.Endpoint:
			c.eps = append(c.eps, o)
		case *kobj.Notification:
			c.ntfns = append(c.ntfns, o)
		}
	}
}

func (c *Checker) add(inv, format string, args ...any) {
	c.out = append(c.out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// checkObjects: alignment and pairwise non-overlap (§2.2 "object
// alignment"), and no live references to destroyed objects. Overlaps
// are found by an address-ordered sweep, then reported inside the
// per-object loop so each object's violations stay together, in object
// order.
func (c *Checker) checkObjects(s *State) {
	pairs := c.overlaps(s.Objects)
	k := 0
	for i, o := range s.Objects {
		h := o.Hdr()
		if h.Destroyed {
			c.add("live-objects", "destroyed object %d in live set", h.ID)
		}
		if h.PAddr%(1<<h.SizeBits) != 0 {
			c.add("object-alignment", "object %d (%v) at %#x not aligned to 2^%d",
				h.ID, h.Type, h.PAddr, h.SizeBits)
		}
		for ; k < len(pairs) && pairs[k].i == i; k++ {
			c.add("object-overlap", "objects %d and %d overlap", h.ID, s.Objects[pairs[k].j].Hdr().ID)
		}
	}
}

// overlaps returns every pair of objects whose footprints intersect
// (kobj.Overlaps) without one containing the other (kobj.Contains),
// sorted by (i, j). It sorts the footprints by start address and
// sweeps them, keeping the active set of earlier footprints that end
// past the current start: exactly those overlap it. The cost is
// O(n log n) plus the active-set sizes, which for a derivation of
// nested untypeds is the nesting depth. A footprint that wraps past
// 2^32 (End() <= PAddr) breaks the interval order, so such a state
// falls back to the all-pairs test.
//
// Containment is read off the spans. An active span a starts at or
// before the current span sp, so kobj.Contains(a, sp) holds exactly
// when a is untyped and sp ends within it, and kobj.Contains(sp, a)
// exactly when sp is untyped, starts where a does, and a ends within
// it.
func (c *Checker) overlaps(objs []kobj.Object) []pair {
	c.pairs = c.pairs[:0]
	c.spans = c.spans[:0]
	sorted := true
	for i, o := range objs {
		h := o.Hdr()
		end := h.End()
		if end <= h.PAddr {
			return c.overlapsPairwise(objs)
		}
		if i > 0 && h.PAddr < c.spans[i-1].start {
			sorted = false
		}
		c.spans = append(c.spans, span{start: h.PAddr, end: end, untyped: h.Type == kobj.TypeUntyped, idx: i})
	}
	// Retyping allocates at a rising watermark and destruction keeps
	// the live set's order, so the objects usually arrive sorted.
	if !sorted {
		slices.SortFunc(c.spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	}
	active := c.active[:0]
	for _, sp := range c.spans {
		// Starts only grow, so a footprint ending at or before this
		// start overlaps neither this one nor any later one.
		live := active[:0]
		for _, a := range active {
			if a.end <= sp.start {
				continue
			}
			live = append(live, a)
			if !(a.untyped && sp.end <= a.end) && !(sp.untyped && sp.start == a.start && a.end <= sp.end) {
				c.pairs = append(c.pairs, pair{min(a.idx, sp.idx), max(a.idx, sp.idx)})
			}
		}
		active = append(live, sp)
	}
	c.active = active[:0]
	slices.SortFunc(c.pairs, func(a, b pair) int {
		if a.i != b.i {
			return cmp.Compare(a.i, b.i)
		}
		return cmp.Compare(a.j, b.j)
	})
	return c.pairs
}

// overlapsPairwise is overlaps by testing every pair, for footprints
// that wrap.
func (c *Checker) overlapsPairwise(objs []kobj.Object) []pair {
	for i, o := range objs {
		for j := i + 1; j < len(objs); j++ {
			if kobj.Overlaps(o, objs[j]) {
				c.addPair(objs, i, j)
			}
		}
	}
	return c.pairs
}

// addPair records overlapping objects i and j unless one contains the
// other (a retyped child inside its parent untyped).
func (c *Checker) addPair(objs []kobj.Object, i, j int) {
	if i > j {
		i, j = j, i
	}
	if !kobj.Contains(objs[i], objs[j]) && !kobj.Contains(objs[j], objs[i]) {
		c.pairs = append(c.pairs, pair{i, j})
	}
}

// checkRunQueues: doubly-linked list well-formedness, the Benno
// invariant, bitmap consistency, and runnable coverage. A walk that
// reaches an already-queued thread stops there with one violation: a
// cycle if this walk queued it, a thread queued twice otherwise.
func (c *Checker) checkRunQueues(s *State) {
	if s.Sched == nil {
		return
	}
	rq := s.Sched.Queues()
	kind := s.Sched.Kind()
	benno := kind != sched.Lazy
	bitmap := kind == sched.BennoBitmap
	queued := c.queued
	clear(queued)
	for p := 0; p < kobj.NumPrios; p++ {
		var prev *kobj.TCB
		revisit := false
		for t := rq.Q[p].Head; t != nil; t = t.SchedNext {
			if q, ok := queued[t]; ok {
				if q == p {
					c.add("queue-well-formed", "prio %d: cycle", p)
				} else {
					c.add("queue-well-formed", "thread %q queued twice", t.Name)
				}
				revisit = true
				break
			}
			if t.SchedPrev != prev {
				c.add("queue-well-formed", "prio %d: bad back-pointer at %q", p, t.Name)
			}
			if int(t.Prio) != p {
				c.add("queue-well-formed", "prio %d: thread %q has prio %d", p, t.Name, t.Prio)
			}
			if !t.InRunQueue {
				c.add("queue-well-formed", "prio %d: queued thread %q not flagged InRunQueue", p, t.Name)
			}
			queued[t] = p
			// The Benno invariant (§3.1): all threads on the
			// run queue are runnable.
			if benno && !t.State.Runnable() {
				c.add("benno-runnable", "prio %d: queued thread %q in state %v", p, t.Name, t.State)
			}
			prev = t
		}
		if !revisit && rq.Q[p].Tail != prev {
			c.add("queue-well-formed", "prio %d: tail mismatch", p)
		}
		// Bitmap consistency (§3.2).
		if bitmap {
			bit := rq.Level2[p>>5]&(1<<(p&31)) != 0
			if bit != (rq.Q[p].Head != nil) {
				c.add("bitmap-consistent", "prio %d: bitmap bit %v, queue empty %v",
					p, bit, rq.Q[p].Head == nil)
			}
		}
	}
	if bitmap {
		for b := 0; b < 8; b++ {
			if (rq.Top&(1<<b) != 0) != (rq.Level2[b] != 0) {
				c.add("bitmap-consistent", "top bit %d inconsistent with level 2", b)
			}
		}
	}
	// Runnable coverage: every runnable thread is queued or current
	// ("all runnable threads on the system are either on the run
	// queue or currently executing", §3.1). Under lazy scheduling a
	// runnable thread may additionally linger unqueued only if it is
	// the current thread; the original invariant is the same.
	for _, o := range s.Objects {
		t, ok := o.(*kobj.TCB)
		if !ok {
			continue
		}
		if t.State == kobj.ThreadRunnable && !t.InRunQueue && t != s.Current {
			c.add("runnable-covered", "runnable thread %q neither queued nor current", t.Name)
		}
		if _, ok := queued[t]; t.InRunQueue && !ok {
			c.add("queue-well-formed", "thread %q flagged InRunQueue but absent", t.Name)
		}
	}
}

// checkEndpoints: endpoint queue well-formedness, state/queue
// agreement, waiter state consistency, and the badged-abort resume
// state (§3.3–3.4).
func (c *Checker) checkEndpoints(s *State) {
	for _, o := range s.Objects {
		ep, ok := o.(*kobj.Endpoint)
		if !ok {
			continue
		}
		var prev *kobj.TCB
		inQueue := c.inQueue
		clear(inQueue)
		revisit := false
		for t := ep.QHead; t != nil; t = t.EPNext {
			if inQueue[t] {
				c.add("ep-well-formed", "%q: cycle", ep.Name)
				revisit = true
				break
			}
			if t.EPPrev != prev {
				c.add("ep-well-formed", "%q: bad back-pointer at %q", ep.Name, t.Name)
			}
			if t.WaitingOn != ep {
				c.add("ep-well-formed", "%q: waiter %q points elsewhere", ep.Name, t.Name)
			}
			switch ep.State {
			case kobj.EPSending:
				if t.State != kobj.ThreadBlockedOnSend {
					c.add("ep-waiter-state", "%q: waiter %q state %v on send queue", ep.Name, t.Name, t.State)
				}
			case kobj.EPReceiving:
				if t.State != kobj.ThreadBlockedOnRecv {
					c.add("ep-waiter-state", "%q: waiter %q state %v on recv queue", ep.Name, t.Name, t.State)
				}
			case kobj.EPIdle:
				c.add("ep-state", "%q: idle endpoint has waiters", ep.Name)
			}
			inQueue[t] = true
			prev = t
		}
		if !revisit && ep.QTail != prev {
			c.add("ep-well-formed", "%q: tail mismatch", ep.Name)
		}
		if ep.QHead == nil && ep.State != kobj.EPIdle {
			c.add("ep-state", "%q: empty queue but state %v", ep.Name, ep.State)
		}
		// Badged-abort resume state (§3.4): while active, the
		// cursor and end marker must reference queue members (or
		// nil), and the worker must be recorded.
		if ep.AbortActive {
			if ep.AbortWorker == nil {
				c.add("abort-state", "%q: active abort with no worker", ep.Name)
			}
			if ep.AbortCursor != nil && !inQueue[ep.AbortCursor] {
				c.add("abort-state", "%q: abort cursor not in queue", ep.Name)
			}
			if ep.AbortEnd != nil && !inQueue[ep.AbortEnd] && ep.AbortCursor != nil {
				c.add("abort-state", "%q: abort end marker not in queue", ep.Name)
			}
		} else if ep.AbortWorker != nil || ep.AbortEnd != nil {
			c.add("abort-state", "%q: stale abort fields", ep.Name)
		}
	}
}

// checkNotifications: notification queue well-formedness and waiter
// exclusivity (a thread waits on an endpoint or a notification, never
// both).
func (c *Checker) checkNotifications(s *State) {
	for _, o := range s.Objects {
		n, ok := o.(*kobj.Notification)
		if !ok {
			continue
		}
		var prev *kobj.TCB
		inQueue := c.inQueue
		clear(inQueue)
		revisit := false
		for t := n.QHead; t != nil; t = t.EPNext {
			if inQueue[t] {
				c.add("ntfn-well-formed", "%q: cycle", n.Name)
				revisit = true
				break
			}
			if t.EPPrev != prev {
				c.add("ntfn-well-formed", "%q: bad back-pointer at %q", n.Name, t.Name)
			}
			if t.WaitingOnNtfn != n {
				c.add("ntfn-well-formed", "%q: waiter %q points elsewhere", n.Name, t.Name)
			}
			if t.WaitingOn != nil {
				c.add("ntfn-exclusive", "%q: waiter %q also queued on endpoint %q", n.Name, t.Name, t.WaitingOn.Name)
			}
			if t.State != kobj.ThreadBlockedOnRecv {
				c.add("ntfn-waiter-state", "%q: waiter %q state %v", n.Name, t.Name, t.State)
			}
			inQueue[t] = true
			prev = t
		}
		if !revisit && n.QTail != prev {
			c.add("ntfn-well-formed", "%q: tail mismatch", n.Name)
		}
		// A pending word with waiters present means a signal was
		// not delivered — the wait/signal protocol never leaves
		// this state.
		if n.Pending != 0 && n.QHead != nil {
			c.add("ntfn-pending", "%q: pending word %#x with waiters queued", n.Name, n.Pending)
		}
	}
}

// checkMDB: the derivation tree's list structure and depth discipline
// (§2.2 "book-keeping invariants").
func (c *Checker) checkMDB(s *State) {
	if s.MDBHead == nil {
		return
	}
	prev := s.MDBHead
	n := 0
	for slot := s.MDBHead.MDBNext; slot != nil; slot = slot.MDBNext {
		if slot.MDBPrev != prev {
			c.add("mdb-well-formed", "slot %s[%d]: bad back-pointer", slot.CNode.Name, slot.Index)
		}
		if slot.IsEmpty() {
			c.add("mdb-well-formed", "slot %s[%d]: empty slot linked in MDB", slot.CNode.Name, slot.Index)
		} else if slot.Cap.Obj != nil && slot.Cap.Obj.Hdr().Destroyed {
			c.add("cap-liveness", "slot %s[%d]: cap to destroyed object %d",
				slot.CNode.Name, slot.Index, slot.Cap.Obj.Hdr().ID)
		}
		// Depth discipline: a node's depth exceeds its
		// predecessor's by at most one (preorder encoding).
		if slot.MDBDepth < 0 || slot.MDBDepth > prev.MDBDepth+1 {
			c.add("mdb-depth", "slot %s[%d]: depth %d after depth %d",
				slot.CNode.Name, slot.Index, slot.MDBDepth, prev.MDBDepth)
		}
		prev = slot
		n++
		if n > 1<<20 {
			c.add("mdb-well-formed", "cycle in MDB")
			return
		}
	}
}

// checkVSpace: design-specific address-space consistency (§3.5–3.6).
func (c *Checker) checkVSpace(s *State) {
	if s.VSpace == nil {
		return
	}
	shadow := s.VSpace.Design() == vspace.ShadowDesign
	for _, pd := range s.VSpace.VSpaces() {
		// Kernel-window presence is an exit-time invariant
		// (§3.5): "all page directories will contain these
		// global mappings — an invariant that must be maintained
		// upon exiting the kernel".
		if s.AtKernelExit && !pd.KernelWindowCopied {
			c.add(KernelWindow, "pd %d missing kernel mappings at kernel exit", pd.ID)
		}
		for di := 0; di < kobj.PDEntries; di++ {
			pt := pd.Tables[di]
			if shadow {
				shadowed := pd.Shadow != nil && pd.Shadow[di] != nil
				if (pt != nil) != shadowed {
					c.add("shadow-consistent", "pd %d dir %d: table %v shadow %v",
						pd.ID, di, pt != nil, shadowed)
				}
			}
			if pt == nil {
				continue
			}
			if pt.Parent != pd || pt.ParentIndex != di {
				c.add("vspace-parent", "pd %d dir %d: table parent link wrong", pd.ID, di)
			}
			for pi := 0; pi < kobj.PTEntries; pi++ {
				f := pt.Entries[pi]
				if shadow {
					sh := pt.Shadow != nil && pt.Shadow[pi] != nil
					if (f != nil) != sh {
						c.add("shadow-consistent", "pd %d dir %d pt %d: frame %v shadow %v",
							pd.ID, di, pi, f != nil, sh)
					}
					if f != nil && sh && pt.Shadow[pi].Cap.Type == kobj.CapFrame &&
						pt.Shadow[pi].Cap.Frame() != f {
						c.add("shadow-consistent", "pd %d dir %d pt %d: shadow points at wrong frame",
							pd.ID, di, pi)
					}
				}
				if f != nil {
					if f.MappedIn != pd {
						c.add("frame-backref", "frame %d mapped in pd %d but back-pointer disagrees", f.ID, pd.ID)
					}
					wantDi, wantPi := int(f.MappedVaddr>>20), int(f.MappedVaddr>>12&0xFF)
					if wantDi != di || wantPi != pi {
						c.add("frame-backref", "frame %d vaddr %#x disagrees with position (%d,%d)",
							f.ID, f.MappedVaddr, di, pi)
					}
				}
			}
		}
	}
}
