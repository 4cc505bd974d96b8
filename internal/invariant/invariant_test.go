package invariant

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"verikern/internal/kobj"
	"verikern/internal/ktime"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

// cleanState builds a small consistent kernel state.
func cleanState(t *testing.T) (*State, *kobj.Manager, *kobj.TCB, *kobj.Endpoint) {
	t.Helper()
	m := kobj.NewManager()
	u, err := m.NewRootUntyped(22)
	if err != nil {
		t.Fatal(err)
	}
	tcbs, _ := m.Retype(u, kobj.TypeTCB, 0, 2)
	cur := tcbs[0].(*kobj.TCB)
	cur.Name = "current"
	cur.State = kobj.ThreadRunning
	other := tcbs[1].(*kobj.TCB)
	other.Name = "other"
	other.Prio = 10
	other.State = kobj.ThreadRunnable

	eps, _ := m.Retype(u, kobj.TypeEndpoint, 0, 1)
	ep := eps[0].(*kobj.Endpoint)
	ep.Name = "ep"

	s := sched.New(sched.BennoBitmap)
	s.Enqueue(other)

	return &State{
		Objects: m.Objects(),
		MDBHead: m.MDBHead(),
		Sched:   s,
		Current: cur,
		VSpace:  vspace.New(vspace.ShadowDesign),
	}, m, other, ep
}

func mustClean(t *testing.T, s *State) {
	t.Helper()
	if vs := Check(s); len(vs) != 0 {
		t.Fatalf("clean state reported violations: %v", vs)
	}
}

func mustViolate(t *testing.T, s *State, invariantName string) {
	t.Helper()
	vs := Check(s)
	for _, v := range vs {
		if v.Invariant == invariantName {
			return
		}
	}
	t.Fatalf("expected %q violation, got %v", invariantName, vs)
}

func TestCleanStatePasses(t *testing.T) {
	s, _, _, _ := cleanState(t)
	mustClean(t, s)
}

func TestDetectsMisalignedObject(t *testing.T) {
	s, _, _, _ := cleanState(t)
	s.Objects[0].Hdr().PAddr += 8
	mustViolate(t, s, "object-alignment")
}

func TestDetectsOverlap(t *testing.T) {
	s, _, _, _ := cleanState(t)
	// Move one TCB on top of another (both 512 B, aligned).
	a := s.Objects[1].Hdr()
	b := s.Objects[2].Hdr()
	b.PAddr = a.PAddr
	mustViolate(t, s, "object-overlap")
}

func TestDetectsDestroyedInLiveSet(t *testing.T) {
	s, _, _, _ := cleanState(t)
	s.Objects[1].Hdr().Destroyed = true
	mustViolate(t, s, "live-objects")
}

// TestLayoutSkip: a Checker skips the object checks only for the
// layout generation it last found clean, and re-checks a broken layout
// on every call.
func TestLayoutSkip(t *testing.T) {
	s, m, _, _ := cleanState(t)
	var c Checker
	s.Layout = m.Layout()
	if vs := c.Check(s); len(vs) != 0 {
		t.Fatalf("clean state reported violations: %v", vs)
	}
	// Misaligning an object without a new generation breaks the
	// generation's promise; the skip shows as a missed violation.
	s.Objects[len(s.Objects)-1].Hdr().PAddr += 8
	if vs := c.Check(s); len(vs) != 0 {
		t.Fatalf("object checks ran for a generation found clean: %v", vs)
	}
	for _, layout := range []uint64{0, s.Layout + 1<<62} {
		s.Layout = layout
		for pass := 0; pass < 2; pass++ {
			vs := c.Check(s)
			if len(vs) != 1 || vs[0].Invariant != "object-alignment" {
				t.Fatalf("layout %d pass %d: got %v, want one object-alignment violation", layout, pass, vs)
			}
		}
	}
}

func TestDetectsBennoViolation(t *testing.T) {
	s, _, queued, _ := cleanState(t)
	// A queued thread that blocks without being dequeued breaks the
	// Benno invariant (§3.1).
	queued.State = kobj.ThreadBlockedOnSend
	mustViolate(t, s, "benno-runnable")
}

func TestDetectsBitmapSkew(t *testing.T) {
	s, _, _, _ := cleanState(t)
	rq := s.Sched.Queues()
	rq.Level2[0] |= 1 << 31 // claim prio 31 has threads
	rq.Top |= 1
	mustViolate(t, s, "bitmap-consistent")
}

func TestDetectsUnqueuedRunnable(t *testing.T) {
	s, m, _, _ := cleanState(t)
	u := s.Objects[0].(*kobj.Untyped)
	objs, _ := m.Retype(u, kobj.TypeTCB, 0, 1)
	stray := objs[0].(*kobj.TCB)
	stray.Name = "stray"
	stray.State = kobj.ThreadRunnable // runnable but neither queued nor current
	s.Objects = m.Objects()
	mustViolate(t, s, "runnable-covered")
}

func TestDetectsBrokenQueueBackPointer(t *testing.T) {
	s, m, _, _ := cleanState(t)
	u := s.Objects[0].(*kobj.Untyped)
	objs, _ := m.Retype(u, kobj.TypeTCB, 0, 1)
	second := objs[0].(*kobj.TCB)
	second.Prio = 10
	second.State = kobj.ThreadRunnable
	s.Sched.Enqueue(second)
	s.Objects = m.Objects()
	mustClean(t, s)
	second.SchedPrev = nil // corrupt the back-pointer
	mustViolate(t, s, "queue-well-formed")
}

func TestDetectsEndpointWaiterStateMismatch(t *testing.T) {
	s, _, _, ep := cleanState(t)
	w := &kobj.TCB{Name: "w", State: kobj.ThreadBlockedOnRecv, WaitingOn: ep}
	ep.QHead, ep.QTail = w, w
	ep.State = kobj.EPSending // direction disagrees with waiter state
	mustViolate(t, s, "ep-waiter-state")
}

func TestDetectsIdleEndpointWithWaiters(t *testing.T) {
	s, _, _, ep := cleanState(t)
	w := &kobj.TCB{Name: "w", State: kobj.ThreadBlockedOnSend, WaitingOn: ep}
	ep.QHead, ep.QTail = w, w
	ep.State = kobj.EPIdle
	mustViolate(t, s, "ep-state")
}

func TestDetectsStaleAbortFields(t *testing.T) {
	s, _, _, ep := cleanState(t)
	ep.AbortWorker = &kobj.TCB{Name: "ghost"}
	mustViolate(t, s, "abort-state")
}

func TestDetectsAbortCursorOutsideQueue(t *testing.T) {
	s, _, _, ep := cleanState(t)
	w := &kobj.TCB{Name: "w", State: kobj.ThreadBlockedOnSend, WaitingOn: ep}
	ep.QHead, ep.QTail = w, w
	ep.State = kobj.EPSending
	ep.AbortActive = true
	ep.AbortWorker = &kobj.TCB{Name: "worker"}
	ep.AbortCursor = &kobj.TCB{Name: "foreign"} // not in the queue
	mustViolate(t, s, "abort-state")
}

func TestDetectsMDBCorruption(t *testing.T) {
	s, m, _, ep := cleanState(t)
	cns, _ := m.Retype(s.Objects[0].(*kobj.Untyped), kobj.TypeCNode, 4, 1)
	cn := cns[0].(*kobj.CNode)
	cn.Name = "cn"
	root := cn.Slot(0)
	m.SetCap(root, kobj.Cap{Type: kobj.CapEndpoint, Obj: ep}, nil)
	child := cn.Slot(1)
	m.SetCap(child, kobj.Cap{Type: kobj.CapEndpoint, Obj: ep, Badge: 1}, root)
	s.Objects = m.Objects()
	mustClean(t, s)
	child.MDBPrev = nil // break the list
	mustViolate(t, s, "mdb-well-formed")
}

func TestDetectsCapToDestroyedObject(t *testing.T) {
	s, m, _, ep := cleanState(t)
	cns, _ := m.Retype(s.Objects[0].(*kobj.Untyped), kobj.TypeCNode, 4, 1)
	cn := cns[0].(*kobj.CNode)
	cn.Name = "cn"
	m.SetCap(cn.Slot(0), kobj.Cap{Type: kobj.CapEndpoint, Obj: ep}, nil)
	s.Objects = m.Objects()
	mustClean(t, s)
	ep.Destroyed = true
	// Keep it out of the live set so only the cap check fires.
	m.Destroy(ep)
	s.Objects = m.Objects()
	mustViolate(t, s, "cap-liveness")
}

func TestDetectsShadowSkew(t *testing.T) {
	s, m, _, _ := cleanState(t)
	mgr := vspace.New(vspace.ShadowDesign)
	e := &vspace.Env{Clock: clock(), Preempt: never}
	u := s.Objects[0].(*kobj.Untyped)
	pdO, _ := m.Retype(u, kobj.TypePageDirectory, 0, 1)
	pd := pdO[0].(*kobj.PageDirectory)
	if err := mgr.InitPD(e, pd); err != nil {
		t.Fatal(err)
	}
	ptO, _ := m.Retype(u, kobj.TypePageTable, 0, 1)
	pt := ptO[0].(*kobj.PageTable)
	cnO, _ := m.Retype(u, kobj.TypeCNode, 4, 1)
	cn := cnO[0].(*kobj.CNode)
	if err := mgr.MapTable(e, pd, 3, pt, cn.Slot(0)); err != nil {
		t.Fatal(err)
	}
	s.VSpace = mgr
	s.Objects = m.Objects()
	mustClean(t, s)
	// Drop the shadow entry while the table stays mapped.
	pd.Shadow[3] = nil
	mustViolate(t, s, "shadow-consistent")
}

func TestDetectsMissingKernelWindowAtExit(t *testing.T) {
	s, m, _, _ := cleanState(t)
	mgr := vspace.New(vspace.ShadowDesign)
	e := &vspace.Env{Clock: clock(), Preempt: never}
	u := s.Objects[0].(*kobj.Untyped)
	pdO, _ := m.Retype(u, kobj.TypePageDirectory, 0, 1)
	pd := pdO[0].(*kobj.PageDirectory)
	if err := mgr.InitPD(e, pd); err != nil {
		t.Fatal(err)
	}
	s.VSpace = mgr
	s.Objects = m.Objects()
	pd.KernelWindowCopied = false
	// Mid-kernel this is tolerated (creation in progress)...
	s.AtKernelExit = false
	mustClean(t, s)
	// ...but never at kernel exit (§3.5).
	s.AtKernelExit = true
	mustViolate(t, s, "kernel-window")
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: "x", Detail: "y"}
	if !strings.Contains(v.String(), "x") || !strings.Contains(v.String(), "y") {
		t.Error("Violation.String incomplete")
	}
}

func never() bool { return false }

func clock() *ktime.Clock { return &ktime.Clock{} }

// TestCyclicQueueStopsAtFirstRevisit: a cyclic wait queue ends its own
// walk with one violation, and the checks after it still run.
func TestCyclicQueueStopsAtFirstRevisit(t *testing.T) {
	s, m, _, ep := cleanState(t)
	objs, _ := m.Retype(s.Objects[0].(*kobj.Untyped), kobj.TypeEndpoint, 0, 1)
	ep2 := objs[0].(*kobj.Endpoint)
	ep2.Name = "ep2"
	s.Objects = m.Objects()
	a := &kobj.TCB{Name: "a", State: kobj.ThreadBlockedOnSend, WaitingOn: ep}
	b := &kobj.TCB{Name: "b", State: kobj.ThreadBlockedOnSend, WaitingOn: ep, EPPrev: a}
	a.EPNext, b.EPNext = b, a // b links back to the head
	ep.QHead, ep.QTail, ep.State = a, b, kobj.EPSending
	ep2.State = kobj.EPSending // no waiters: an empty queue must be idle
	want := []Violation{
		{"ep-well-formed", `"ep": cycle`},
		{"ep-state", fmt.Sprintf(`"ep2": empty queue but state %v`, kobj.EPSending)},
	}
	if got := Check(s); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestCyclicRunQueueKeepsCoverage: a run-queue cycle is one violation,
// and the remaining priorities and the runnable-coverage pass still
// run.
func TestCyclicRunQueueKeepsCoverage(t *testing.T) {
	s, m, queued, _ := cleanState(t)
	objs, _ := m.Retype(s.Objects[0].(*kobj.Untyped), kobj.TypeTCB, 0, 1)
	stray := objs[0].(*kobj.TCB)
	stray.Name = "stray"
	stray.State = kobj.ThreadRunnable
	s.Objects = m.Objects()
	queued.SchedNext = queued // prio 10 loops on itself
	want := []Violation{
		{"queue-well-formed", "prio 10: cycle"},
		{"runnable-covered", `runnable thread "stray" neither queued nor current`},
	}
	if got := Check(s); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
