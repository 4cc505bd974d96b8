// Package faults is a catalog of single-fault corruptions of kernel
// state, one or more for each condition the invariant suite's
// clean-path screens test: queue links, flags and thread states, the
// scheduler bitmap, endpoint and notification queues and their abort
// and pending fields, and page-directory, page-table, shadow and frame
// back-references. Tests apply a fault to a consistent state, check
// the state, and revert the fault.
//
// No fault touches an object-layout field (the object set, an address,
// a size or the Destroyed flag), so a layout generation
// (invariant.State.Layout) stays truthful while a fault is applied.
package faults

import (
	"verikern/internal/invariant"
	"verikern/internal/kobj"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

// Fault is one corruption.
type Fault struct {
	// Name says what the fault breaks.
	Name string
	// Apply corrupts candidate target (taken modulo the number of
	// candidates; target >= 0) of s in place and returns the function
	// that reverts it, or nil when s has no candidate.
	Apply func(s *invariant.State, target int) (revert func())
}

// Catalog lists the faults, each of which breaks at least one
// invariant wherever it applies.
var Catalog = []Fault{
	// Run queues.
	{"run-queue tail on an empty priority", func(s *invariant.State, target int) func() {
		ts := tcbs(s)
		if s.Sched == nil || len(ts) == 0 {
			return nil
		}
		rq := s.Sched.Queues()
		var empty []int
		for p := range rq.Q {
			if rq.Q[p].Head == nil && rq.Q[p].Tail == nil {
				empty = append(empty, p)
			}
		}
		p, ok := pick(empty, target)
		if !ok {
			return nil
		}
		return set(&rq.Q[p].Tail, ts[target%len(ts)])
	}},
	{"thread also queued at another priority", func(s *invariant.State, target int) func() {
		if s.Sched == nil {
			return nil
		}
		rq := s.Sched.Queues()
		var single, empty []int
		for p := range rq.Q {
			switch q := rq.Q[p]; {
			case q.Head == nil && q.Tail == nil:
				empty = append(empty, p)
			case q.Head != nil && q.Head == q.Tail && q.Head.SchedNext == nil:
				single = append(single, p)
			}
		}
		p, ok := pick(single, target)
		e, ok2 := pick(empty, target)
		if !ok || !ok2 {
			return nil
		}
		t := rq.Q[p].Head
		head, tail := set(&rq.Q[e].Head, t), set(&rq.Q[e].Tail, t)
		return func() { head(); tail() }
	}},
	{"run-queue back-pointer", onQueued(func(t *kobj.TCB) func() { return set(&t.SchedPrev, t) })},
	{"queued thread's prio differs from its queue", onQueued(func(t *kobj.TCB) func() { return set(&t.Prio, t.Prio+1) })},
	{"queued thread not flagged InRunQueue", onQueued(func(t *kobj.TCB) func() { return set(&t.InRunQueue, false) })},
	{"blocked thread left on a Benno run queue", func(s *invariant.State, target int) func() {
		if s.Sched == nil || s.Sched.Kind() == sched.Lazy {
			return nil
		}
		t, ok := pick(queued(s), target)
		if !ok {
			return nil
		}
		return set(&t.State, kobj.ThreadBlockedOnReply)
	}},
	{"run-queue tail cleared", func(s *invariant.State, target int) func() {
		if s.Sched == nil {
			return nil
		}
		rq := s.Sched.Queues()
		var busy []int
		for p := range rq.Q {
			if rq.Q[p].Head != nil {
				busy = append(busy, p)
			}
		}
		p, ok := pick(busy, target)
		if !ok {
			return nil
		}
		return set(&rq.Q[p].Tail, nil)
	}},
	{"Level2 bitmap bit flipped", func(s *invariant.State, target int) func() {
		if s.Sched == nil || s.Sched.Kind() != sched.BennoBitmap {
			return nil
		}
		rq := s.Sched.Queues()
		p := target % kobj.NumPrios
		return set(&rq.Level2[p>>5], rq.Level2[p>>5]^1<<(p&31))
	}},
	{"Top bitmap bit flipped", func(s *invariant.State, target int) func() {
		if s.Sched == nil || s.Sched.Kind() != sched.BennoBitmap {
			return nil
		}
		rq := s.Sched.Queues()
		return set(&rq.Top, rq.Top^1<<(target%8))
	}},
	{"unqueued thread flagged InRunQueue", func(s *invariant.State, target int) func() {
		if s.Sched == nil {
			return nil
		}
		var out []*kobj.TCB
		for _, t := range tcbs(s) {
			if !t.InRunQueue {
				out = append(out, t)
			}
		}
		t, ok := pick(out, target)
		if !ok {
			return nil
		}
		return set(&t.InRunQueue, true)
	}},
	{"runnable thread neither queued nor current", func(s *invariant.State, target int) func() {
		if s.Sched == nil {
			return nil
		}
		var out []*kobj.TCB
		for _, t := range tcbs(s) {
			if !t.InRunQueue && t != s.Current && t.State != kobj.ThreadRunnable {
				out = append(out, t)
			}
		}
		t, ok := pick(out, target)
		if !ok {
			return nil
		}
		return set(&t.State, kobj.ThreadRunnable)
	}},

	// Endpoints.
	{"stale abort worker", onEndpoint(idleAbort, func(s *invariant.State, ep *kobj.Endpoint) func() {
		return set(&ep.AbortWorker, anyTCB(s))
	})},
	{"stale abort end marker", onEndpoint(idleAbort, func(s *invariant.State, ep *kobj.Endpoint) func() {
		return set(&ep.AbortEnd, anyTCB(s))
	})},
	{"active abort without a worker", onEndpoint(idleAbort, func(_ *invariant.State, ep *kobj.Endpoint) func() {
		return set(&ep.AbortActive, true)
	})},
	{"endpoint head on an empty queue", onEndpoint(emptyEP, func(s *invariant.State, ep *kobj.Endpoint) func() {
		return set(&ep.QHead, anyTCB(s))
	})},
	{"endpoint tail on an empty queue", onEndpoint(emptyEP, func(s *invariant.State, ep *kobj.Endpoint) func() {
		return set(&ep.QTail, anyTCB(s))
	})},
	{"empty endpoint not idle", onEndpoint(emptyEP, func(_ *invariant.State, ep *kobj.Endpoint) func() {
		return set(&ep.State, kobj.EPSending)
	})},
	{"endpoint with waiters marked idle", onEndpoint(waitedEP, func(_ *invariant.State, ep *kobj.Endpoint) func() {
		return set(&ep.State, kobj.EPIdle)
	})},
	{"endpoint tail cleared", onEndpoint(waitedEP, func(_ *invariant.State, ep *kobj.Endpoint) func() {
		return set(&ep.QTail, nil)
	})},
	{"endpoint waiter back-pointer", onEPWaiter(func(_ *kobj.Endpoint, t *kobj.TCB) func() { return set(&t.EPPrev, t) })},
	{"endpoint waiter waiting elsewhere", onEPWaiter(func(_ *kobj.Endpoint, t *kobj.TCB) func() { return set(&t.WaitingOn, nil) })},
	{"endpoint waiter blocked the other way", onEPWaiter(func(ep *kobj.Endpoint, t *kobj.TCB) func() {
		if ep.State == kobj.EPSending {
			return set(&t.State, kobj.ThreadBlockedOnRecv)
		}
		return set(&t.State, kobj.ThreadBlockedOnSend)
	})},

	// Notifications.
	{"notification tail on an empty queue", onNotification(false, func(s *invariant.State, n *kobj.Notification) func() {
		return set(&n.QTail, anyTCB(s))
	})},
	{"notification pending with waiters", onNotification(true, func(_ *invariant.State, n *kobj.Notification) func() {
		return set(&n.Pending, n.Pending|1)
	})},
	{"notification tail cleared", onNotification(true, func(_ *invariant.State, n *kobj.Notification) func() {
		return set(&n.QTail, nil)
	})},
	{"notification waiter back-pointer", onNtfnWaiter(func(_ *invariant.State, t *kobj.TCB) func() { return set(&t.EPPrev, t) })},
	{"notification waiter waiting elsewhere", onNtfnWaiter(func(_ *invariant.State, t *kobj.TCB) func() { return set(&t.WaitingOnNtfn, nil) })},
	{"notification waiter also on an endpoint", onNtfnWaiter(func(s *invariant.State, t *kobj.TCB) func() {
		eps := endpoints(s)
		if len(eps) == 0 {
			return nil
		}
		return set(&t.WaitingOn, eps[0])
	})},
	{"notification waiter not receiving", onNtfnWaiter(func(_ *invariant.State, t *kobj.TCB) func() {
		return set(&t.State, kobj.ThreadBlockedOnSend)
	})},

	// Address spaces.
	{"kernel window missing at exit", func(s *invariant.State, target int) func() {
		if s.VSpace == nil || !s.AtKernelExit {
			return nil
		}
		pd, ok := pick(s.VSpace.VSpaces(), target)
		if !ok {
			return nil
		}
		return set(&pd.KernelWindowCopied, false)
	}},
	{"page-directory shadow missing", onTable(true, func(pd *kobj.PageDirectory, _ int, _ *kobj.PageTable) func() {
		return set(&pd.Shadow, nil)
	})},
	{"page-directory shadow entry dropped", onTable(true, func(pd *kobj.PageDirectory, di int, _ *kobj.PageTable) func() {
		return set(&pd.Shadow[di], nil)
	})},
	{"page-directory shadow entry without a table", onTable(true, func(pd *kobj.PageDirectory, di int, _ *kobj.PageTable) func() {
		for d := (di + 1) % kobj.PDEntries; d != di; d = (d + 1) % kobj.PDEntries {
			if pd.Tables[d] == nil {
				return set(&pd.Shadow[d], pd.Shadow[di])
			}
		}
		return nil
	})},
	{"page-table parent", onTable(false, func(_ *kobj.PageDirectory, _ int, pt *kobj.PageTable) func() {
		return set(&pt.Parent, nil)
	})},
	{"page-table parent index", onTable(false, func(_ *kobj.PageDirectory, di int, pt *kobj.PageTable) func() {
		return set(&pt.ParentIndex, di+1)
	})},
	{"page-table shadow missing", onFrame(true, func(_ *kobj.PageDirectory, _, _ int, pt *kobj.PageTable, _ *kobj.Frame) func() {
		return set(&pt.Shadow, nil)
	})},
	{"page-table shadow entry dropped", onFrame(true, func(_ *kobj.PageDirectory, _, pi int, pt *kobj.PageTable, _ *kobj.Frame) func() {
		return set(&pt.Shadow[pi], nil)
	})},
	{"page-table shadow entry without a frame", onFrame(true, func(_ *kobj.PageDirectory, _, pi int, pt *kobj.PageTable, _ *kobj.Frame) func() {
		for p := (pi + 1) % kobj.PTEntries; p != pi; p = (p + 1) % kobj.PTEntries {
			if pt.Entries[p] == nil {
				return set(&pt.Shadow[p], pt.Shadow[pi])
			}
		}
		return nil
	})},
	{"shadow points at the wrong frame", onFrame(true, func(_ *kobj.PageDirectory, _, pi int, pt *kobj.PageTable, _ *kobj.Frame) func() {
		return set(&pt.Shadow[pi], &kobj.Slot{Cap: kobj.Cap{Type: kobj.CapFrame, Obj: &kobj.Frame{}}})
	})},
	{"frame mapped-in back-pointer", onFrame(false, func(_ *kobj.PageDirectory, _, _ int, _ *kobj.PageTable, f *kobj.Frame) func() {
		return set(&f.MappedIn, nil)
	})},
	{"frame vaddr directory index", onFrame(false, func(_ *kobj.PageDirectory, _, _ int, _ *kobj.PageTable, f *kobj.Frame) func() {
		return set(&f.MappedVaddr, f.MappedVaddr^1<<20)
	})},
	{"frame vaddr page index", onFrame(false, func(_ *kobj.PageDirectory, _, _ int, _ *kobj.PageTable, f *kobj.Frame) func() {
		return set(&f.MappedVaddr, f.MappedVaddr^1<<12)
	})},
}

// set stores v in *p and returns the function that restores the old
// value.
func set[T any](p *T, v T) func() {
	old := *p
	*p = v
	return func() { *p = old }
}

// pick returns xs[target mod len(xs)], or false when xs is empty.
func pick[T any](xs []T, target int) (T, bool) {
	var zero T
	if len(xs) == 0 {
		return zero, false
	}
	return xs[target%len(xs)], true
}

func tcbs(s *invariant.State) []*kobj.TCB {
	var out []*kobj.TCB
	for _, o := range s.Objects {
		if t, ok := o.(*kobj.TCB); ok {
			out = append(out, t)
		}
	}
	return out
}

// anyTCB returns the first live thread, or a fresh one.
func anyTCB(s *invariant.State) *kobj.TCB {
	if ts := tcbs(s); len(ts) > 0 {
		return ts[0]
	}
	return &kobj.TCB{Name: "fault"}
}

func notifications(s *invariant.State) []*kobj.Notification {
	var out []*kobj.Notification
	for _, o := range s.Objects {
		if n, ok := o.(*kobj.Notification); ok {
			out = append(out, n)
		}
	}
	return out
}

func endpoints(s *invariant.State) []*kobj.Endpoint {
	var out []*kobj.Endpoint
	for _, o := range s.Objects {
		if ep, ok := o.(*kobj.Endpoint); ok {
			out = append(out, ep)
		}
	}
	return out
}

// queued returns the run-queued threads in priority order.
func queued(s *invariant.State) []*kobj.TCB {
	if s.Sched == nil {
		return nil
	}
	var out []*kobj.TCB
	rq := s.Sched.Queues()
	for p := range rq.Q {
		for t := rq.Q[p].Head; t != nil; t = t.SchedNext {
			out = append(out, t)
		}
	}
	return out
}

func onQueued(f func(t *kobj.TCB) func()) func(*invariant.State, int) func() {
	return func(s *invariant.State, target int) func() {
		t, ok := pick(queued(s), target)
		if !ok {
			return nil
		}
		return f(t)
	}
}

func idleAbort(ep *kobj.Endpoint) bool {
	return !ep.AbortActive && ep.AbortWorker == nil && ep.AbortEnd == nil
}

func emptyEP(ep *kobj.Endpoint) bool {
	return ep.QHead == nil && ep.QTail == nil && ep.State == kobj.EPIdle
}

func waitedEP(ep *kobj.Endpoint) bool {
	return ep.QHead != nil && (ep.State == kobj.EPSending || ep.State == kobj.EPReceiving)
}

func onEndpoint(want func(*kobj.Endpoint) bool, f func(*invariant.State, *kobj.Endpoint) func()) func(*invariant.State, int) func() {
	return func(s *invariant.State, target int) func() {
		var out []*kobj.Endpoint
		for _, ep := range endpoints(s) {
			if want(ep) {
				out = append(out, ep)
			}
		}
		ep, ok := pick(out, target)
		if !ok {
			return nil
		}
		return f(s, ep)
	}
}

// onEPWaiter applies f to a thread queued on a sending or receiving
// endpoint.
func onEPWaiter(f func(*kobj.Endpoint, *kobj.TCB) func()) func(*invariant.State, int) func() {
	return func(s *invariant.State, target int) func() {
		type waiter struct {
			ep *kobj.Endpoint
			t  *kobj.TCB
		}
		var out []waiter
		for _, ep := range endpoints(s) {
			if waitedEP(ep) {
				for t := ep.QHead; t != nil; t = t.EPNext {
					out = append(out, waiter{ep, t})
				}
			}
		}
		w, ok := pick(out, target)
		if !ok {
			return nil
		}
		return f(w.ep, w.t)
	}
}

// onNotification applies f to a notification with (waited) or without
// waiters.
func onNotification(waited bool, f func(*invariant.State, *kobj.Notification) func()) func(*invariant.State, int) func() {
	return func(s *invariant.State, target int) func() {
		var out []*kobj.Notification
		for _, n := range notifications(s) {
			if (n.QHead != nil) == waited && (waited || n.QTail == nil) {
				out = append(out, n)
			}
		}
		n, ok := pick(out, target)
		if !ok {
			return nil
		}
		return f(s, n)
	}
}

// onNtfnWaiter applies f to a thread queued on a notification.
func onNtfnWaiter(f func(*invariant.State, *kobj.TCB) func()) func(*invariant.State, int) func() {
	return func(s *invariant.State, target int) func() {
		var out []*kobj.TCB
		for _, n := range notifications(s) {
			for t := n.QHead; t != nil; t = t.EPNext {
				out = append(out, t)
			}
		}
		t, ok := pick(out, target)
		if !ok {
			return nil
		}
		return f(s, t)
	}
}

// onTable applies f to a page table mapped at entry di of pd, in any
// design or (shadowOnly) the shadow design.
func onTable(shadowOnly bool, f func(pd *kobj.PageDirectory, di int, pt *kobj.PageTable) func()) func(*invariant.State, int) func() {
	return func(s *invariant.State, target int) func() {
		if s.VSpace == nil || shadowOnly && s.VSpace.Design() != vspace.ShadowDesign {
			return nil
		}
		type table struct {
			pd *kobj.PageDirectory
			di int
		}
		var out []table
		for _, pd := range s.VSpace.VSpaces() {
			for di, pt := range &pd.Tables {
				if pt != nil {
					out = append(out, table{pd, di})
				}
			}
		}
		tb, ok := pick(out, target)
		if !ok {
			return nil
		}
		return f(tb.pd, tb.di, tb.pd.Tables[tb.di])
	}
}

// onFrame applies f to a frame mapped at entry pi of the table at
// entry di of pd, in any design or (shadowOnly) the shadow design.
func onFrame(shadowOnly bool, f func(pd *kobj.PageDirectory, di, pi int, pt *kobj.PageTable, fr *kobj.Frame) func()) func(*invariant.State, int) func() {
	return func(s *invariant.State, target int) func() {
		if s.VSpace == nil || shadowOnly && s.VSpace.Design() != vspace.ShadowDesign {
			return nil
		}
		type mapping struct {
			pd     *kobj.PageDirectory
			di, pi int
		}
		var out []mapping
		for _, pd := range s.VSpace.VSpaces() {
			for di, pt := range &pd.Tables {
				if pt == nil {
					continue
				}
				for pi, fr := range &pt.Entries {
					if fr != nil {
						out = append(out, mapping{pd, di, pi})
					}
				}
			}
		}
		m, ok := pick(out, target)
		if !ok {
			return nil
		}
		pt := m.pd.Tables[m.di]
		return f(m.pd, m.di, m.pi, pt, pt.Entries[m.pi])
	}
}
