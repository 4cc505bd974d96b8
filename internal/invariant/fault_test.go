package invariant_test

import (
	"fmt"
	"reflect"
	"testing"

	"verikern/internal/invariant"
	"verikern/internal/invariant/faults"
	"verikern/internal/kernel"
	"verikern/internal/kobj"
	"verikern/internal/sched"
)

// baseKinds names the states single faults are injected into: the
// kernel state after soak ops at three legacy soak-matrix points, and
// kernel-built states with page tables, frames and wait queues under
// each scheduler and address-space design.
var baseKinds = []string{"benno+preempt", "benno+nopreempt", "lazy", "built/modern", "built/original", "built/benno-asid"}

// soakKinds is the number of soak points leading baseKinds.
const soakKinds = 3

// baseState returns the state of base kind i (mod len(baseKinds)); the
// soak kinds run ops soak ops at seed 1, the built kinds ignore ops.
// Its Layout is the object manager's generation, as the kernel passes.
func baseState(tb testing.TB, i, ops int) *invariant.State {
	tb.Helper()
	var k *kernel.Kernel
	switch kind := baseKinds[i%len(baseKinds)]; kind {
	case "built/modern":
		k = builtKernel(tb, kernel.Modern())
	case "built/original":
		k = builtKernel(tb, kernel.Original())
	case "built/benno-asid":
		cfg := kernel.Original()
		cfg.Scheduler = sched.Benno
		k = builtKernel(tb, cfg)
	default:
		k = soakedKernel(tb, kind, ops)
	}
	st := kernelState(k)
	st.Layout = k.Objects().Layout()
	return st
}

// builtKernel boots cfg and, through the kernel's own calls, gives an
// owner thread a page directory with two page tables and four frames
// mapped, blocks two senders and two receivers on their endpoints and
// two waiters on a notification, leaves one endpoint and one
// notification empty, and queues one runnable thread.
func builtKernel(tb testing.TB, cfg kernel.Config) *kernel.Kernel {
	tb.Helper()
	cfg.CheckInvariants = false
	k, err := kernel.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	thread := func(name string, prio uint8) *kobj.TCB {
		t, err := k.CreateThread(name, prio)
		must(err)
		k.StartThread(t)
		return t
	}
	create := func(t *kobj.TCB, ot kobj.ObjType, param uint8, n int) []uint32 {
		addrs, err := k.CreateObjects(t, ot, param, n)
		must(err)
		return addrs
	}
	owner := thread("owner", 100)
	pd := create(owner, kobj.TypePageDirectory, 0, 1)
	must(k.AssignVSpace(owner, pd[0]))
	pts := create(owner, kobj.TypePageTable, 0, 2)
	must(k.MapPageTable(owner, pts[0], 64<<20))
	must(k.MapPageTable(owner, pts[1], 65<<20))
	for i, f := range create(owner, kobj.TypeFrame, 12, 4) {
		must(k.MapFrame(owner, f, uint32(64+i/3)<<20|uint32(i%3)<<12))
	}
	eps := create(owner, kobj.TypeEndpoint, 0, 3)
	ntfns := create(owner, kobj.TypeNotification, 0, 2)
	for i := 0; i < 2; i++ {
		must(k.Send(thread(fmt.Sprint("sender", i), 50), eps[0], 1, nil, false))
		must(k.Recv(thread(fmt.Sprint("receiver", i), 60), eps[1]))
		must(k.WaitIRQ(thread(fmt.Sprint("waiter", i), 70), ntfns[0]))
	}
	// A queued thread at the blocked senders' priority, so a flagged
	// sender is absent from a non-empty queue.
	thread("runner", 50)
	return k
}

// requireClean requires st to be consistent, and every clean-path
// screen to pass it but the wait-queue screen, which hands an endpoint
// with an active badged abort to its reporter.
func requireClean(t testing.TB, c *invariant.Checker, name string, st *invariant.State) {
	t.Helper()
	if vs := invariant.OracleCheck(st); len(vs) != 0 {
		t.Fatalf("%s: base state is not consistent: %v", name, vs)
	}
	if vs := c.Check(st); len(vs) != 0 {
		t.Fatalf("%s: checker reports a consistent state: %v", name, vs)
	}
	rq, wq, vs := c.Screens(st)
	if !wq {
		for _, o := range st.Objects {
			if ep, ok := o.(*kobj.Endpoint); ok && ep.AbortActive {
				wq = true
			}
		}
	}
	if !rq || !wq || !vs {
		t.Fatalf("%s: a screen rejects a consistent state: run queues %v, wait queues %v, vspace %v", name, rq, wq, vs)
	}
}

// checkFault applies catalog fault fi to candidate target of st,
// requires the Checker to report exactly what the oracle does, with
// st's layout generation and with zero, and reverts the fault. When st
// was consistent it also requires the fault to break an invariant. It
// reports whether the fault applied.
func checkFault(t testing.TB, c *invariant.Checker, name string, st *invariant.State, clean bool, fi, target int) bool {
	t.Helper()
	f := faults.Catalog[fi]
	revert := f.Apply(st, target)
	if revert == nil {
		return false
	}
	defer revert()
	want := invariant.OracleCheck(st)
	if clean && len(want) == 0 {
		t.Fatalf("%s: fault %q (target %d) broke no invariant", name, f.Name, target)
	}
	full := *st
	full.Layout = 0
	for _, s := range []*invariant.State{st, &full} {
		if got := c.Check(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fault %q (target %d), layout %d:\nchecker: %v\noracle:  %v", name, f.Name, target, s.Layout, got, want)
		}
	}
	return true
}

// TestSingleFaultSoundness injects each catalog fault, one at a time,
// into consistent soak and kernel-built states, and requires the
// Checker, whose clean path is the screens, to report exactly the
// oracle's violations. A screen missing any one condition would pass
// the fault it guards and report nothing. Every fault must apply to
// some base state, and every base state must pass the screens.
func TestSingleFaultSoundness(t *testing.T) {
	var c invariant.Checker
	applied := make([]int, len(faults.Catalog))
	bases := []struct {
		kind, ops int
	}{{0, 500}, {0, 1500}, {1, 500}, {1, 1500}, {2, 2}, {3, 0}, {4, 0}, {5, 0}}
	for _, b := range bases {
		name := fmt.Sprintf("%s after %d ops", baseKinds[b.kind], b.ops)
		st := baseState(t, b.kind, b.ops)
		requireClean(t, &c, name, st)
		// Runnable coverage also admits a current thread that is
		// runnable and unqueued. The kernel marks its current thread
		// running, so only this variant reaches that case.
		if cur := st.Current; cur != nil && !cur.InRunQueue {
			state := cur.State
			cur.State = kobj.ThreadRunnable
			requireClean(t, &c, name+", current thread runnable", st)
			cur.State = state
		}
		for fi := range faults.Catalog {
			for target := 0; target < 4; target++ {
				if checkFault(t, &c, name, st, true, fi, target) {
					applied[fi]++
				}
			}
		}
		// The reverts restored the state exactly.
		requireClean(t, &c, name, st)
	}
	for fi, n := range applied {
		if n == 0 {
			t.Errorf("fault %q applies to no base state", faults.Catalog[fi].Name)
		}
	}
}

// FuzzSingleFault is TestSingleFaultSoundness under the fuzzer. The
// input's bytes choose the base state, the soak op count (8 per unit),
// the fault and its target; the seed corpus is the catalog on every
// base kind. A base state that is not consistent (a soak that reached
// a model defect) is still compared, without the requirement that the
// fault break something new.
func FuzzSingleFault(f *testing.F) {
	for kind := range baseKinds {
		for fi := range faults.Catalog {
			f.Add(byte(kind), byte(40), byte(fi), byte(0))
		}
	}
	var c invariant.Checker
	var cached struct {
		kind, ops int
		st        *invariant.State
		clean     bool
	}
	f.Fuzz(func(t *testing.T, kind, ops8, fault, target byte) {
		k, ops := int(kind)%len(baseKinds), int(ops8)*8
		if k >= soakKinds {
			ops = 0
		}
		if cached.st == nil || cached.kind != k || cached.ops != ops {
			cached.kind, cached.ops = k, ops
			cached.st = baseState(t, k, ops)
			cached.clean = len(invariant.OracleCheck(cached.st)) == 0
		}
		name := fmt.Sprintf("%s after %d ops", baseKinds[k], ops)
		if cached.clean {
			requireClean(t, &c, name, cached.st)
		}
		checkFault(t, &c, name, cached.st, cached.clean, int(fault)%len(faults.Catalog), int(target))
	})
}
