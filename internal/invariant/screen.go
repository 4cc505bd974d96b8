package invariant

import (
	"verikern/internal/kobj"
	"verikern/internal/sched"
	"verikern/internal/vspace"
)

// The screens answer one question, "would this reporter find
// anything?", without a map, an allocation or a formatted string. A
// screen may reject more than its reporter would (an unusual shape is
// handed to the reporter), but it never passes a state its reporter
// finds anything in, so running the reporter only on rejected states
// leaves the violation list unchanged.
//
// The queue walks need no visited set. Suppose a walk that checks each
// node's back-pointer against its predecessor revisits a node, and let
// x be the first node it reaches twice, from predecessor a the first
// time and z the second. Both visits passed the back-pointer test, so
// z = a: a was reached a second time before x was, a contradiction. If
// x was the head, its back-pointer is nil but z is not. So a cycle
// fails the back-pointer test before the walk loops, and a walk the
// screen finishes visited each node once, as the reporter's would.

// runQueuesClean screens checkRunQueues. Every queued node must have
// the right back-pointer, its queue's priority (so no thread is walked
// in two queues), the InRunQueue flag and, under Benno scheduling, a
// runnable state; each queue's tail must be its last node; under the
// bitmap scheduler each 32-priority occupancy word must equal its
// Level2 word and agree with its Top bit. Then every indexed thread
// flagged InRunQueue must be on the queue of its priority, the only
// one the walk could have met it in, and every runnable one not
// flagged must be current. Finding a flagged thread rescans its queue,
// so a queue longer than maxScreenQueue goes to the reporter instead,
// which keeps the rescans linear in the number of queued threads.
func runQueuesClean(s *State, tcbs []*kobj.TCB) bool {
	if s.Sched == nil {
		return true
	}
	rq := s.Sched.Queues()
	kind := s.Sched.Kind()
	benno := kind != sched.Lazy
	bitmap := kind == sched.BennoBitmap
	for b := range rq.Level2 {
		bucket := rq.Q[b*32 : b*32+32]
		var word uint32
		for i := range bucket {
			q := &bucket[i]
			if q.Head == nil {
				if q.Tail != nil {
					return false
				}
				continue
			}
			word |= 1 << i
			p := b*32 + i
			var prev *kobj.TCB
			n := 0
			for t := q.Head; t != nil; t = t.SchedNext {
				if n == maxScreenQueue || t.SchedPrev != prev || int(t.Prio) != p || !t.InRunQueue || benno && !t.State.Runnable() {
					return false
				}
				n++
				prev = t
			}
			if q.Tail != prev {
				return false
			}
		}
		if bitmap && (word != rq.Level2[b] || (rq.Top&(1<<b) != 0) != (word != 0)) {
			return false
		}
	}
	for _, t := range tcbs {
		if t.InRunQueue {
			if !onQueue(&rq.Q[t.Prio], t) {
				return false
			}
		} else if t.State == kobj.ThreadRunnable && t != s.Current {
			return false
		}
	}
	return true
}

// maxScreenQueue is the longest run queue runQueuesClean screens.
const maxScreenQueue = 32

// onQueue reports whether t is on q, a queue runQueuesClean has walked.
func onQueue(q *sched.Queue, t *kobj.TCB) bool {
	for w := q.Head; w != nil; w = w.SchedNext {
		if w == t {
			return true
		}
	}
	return false
}

// waitQueuesClean screens checkEndpoints and checkNotifications. An
// endpoint with any abort field set goes to the reporter (an active
// abort's cursor and end marker need queue membership). An idle
// endpoint must have an empty queue, and a sending or receiving one a
// non-empty queue whose waiters point back at it and are blocked in
// the queue's direction. A notification's waiters must point back at
// it, wait on no endpoint and be blocked receiving, and its pending
// word must be zero while it has any. Every queue's tail must be its
// last node.
func waitQueuesClean(eps []*kobj.Endpoint, ntfns []*kobj.Notification) bool {
	for _, ep := range eps {
		if ep.AbortActive || ep.AbortWorker != nil || ep.AbortEnd != nil {
			return false
		}
		var want kobj.ThreadState
		switch ep.State {
		case kobj.EPIdle:
			if ep.QHead != nil || ep.QTail != nil {
				return false
			}
			continue
		case kobj.EPSending:
			want = kobj.ThreadBlockedOnSend
		case kobj.EPReceiving:
			want = kobj.ThreadBlockedOnRecv
		}
		// For a state outside the three the reporter checks no
		// waiter state, so leaving want at ThreadInactive is only
		// stricter.
		if ep.QHead == nil {
			return false
		}
		var prev *kobj.TCB
		for t := ep.QHead; t != nil; t = t.EPNext {
			if t.EPPrev != prev || t.WaitingOn != ep || t.State != want {
				return false
			}
			prev = t
		}
		if ep.QTail != prev {
			return false
		}
	}
	for _, n := range ntfns {
		if n.QHead == nil {
			if n.QTail != nil {
				return false
			}
			continue
		}
		if n.Pending != 0 {
			return false
		}
		var prev *kobj.TCB
		for t := n.QHead; t != nil; t = t.EPNext {
			if t.EPPrev != prev || t.WaitingOnNtfn != n || t.WaitingOn != nil || t.State != kobj.ThreadBlockedOnRecv {
				return false
			}
			prev = t
		}
		if n.QTail != prev {
			return false
		}
	}
	return true
}

// vspaceClean screens checkVSpace. At kernel exit every page directory
// must hold the kernel window. Under the shadow design a directory's
// shadow must be exactly PDEntries long and agree with its tables on
// which entries are nil; each mapped table must link back to its
// directory and index, and under the shadow design have a PTEntries-long
// shadow agreeing with its entries, pointing at the mapped frame when
// it holds a frame cap. Each mapped frame must point back at the
// directory and at its own position.
func vspaceClean(s *State) bool {
	if s.VSpace == nil {
		return true
	}
	shadow := s.VSpace.Design() == vspace.ShadowDesign
	for _, pd := range s.VSpace.VSpaces() {
		if s.AtKernelExit && !pd.KernelWindowCopied {
			return false
		}
		if !shadow {
			for di, pt := range &pd.Tables {
				if pt != nil && !tableClean(pd, di, pt, false) {
					return false
				}
			}
			continue
		}
		if len(pd.Shadow) != kobj.PDEntries {
			return false
		}
		sh := pd.Shadow[:kobj.PDEntries]
		for di, pt := range &pd.Tables {
			if (pt == nil) != (sh[di] == nil) {
				return false
			}
			if pt != nil && !tableClean(pd, di, pt, true) {
				return false
			}
		}
	}
	return true
}

// tableClean screens the table pt mapped at pd's entry di.
func tableClean(pd *kobj.PageDirectory, di int, pt *kobj.PageTable, shadow bool) bool {
	if pt.Parent != pd || pt.ParentIndex != di {
		return false
	}
	if shadow && len(pt.Shadow) != kobj.PTEntries {
		return false
	}
	for pi, f := range &pt.Entries {
		if shadow {
			sh := pt.Shadow[pi]
			if (f == nil) != (sh == nil) {
				return false
			}
			if f != nil && sh.Cap.Type == kobj.CapFrame && sh.Cap.Frame() != f {
				return false
			}
		}
		// The frame's vaddr, past its page offset, is its (di, pi).
		if f != nil && (f.MappedIn != pd || f.MappedVaddr>>12 != uint32(di<<8|pi)) {
			return false
		}
	}
	return true
}
