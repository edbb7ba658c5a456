package dev_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/kern"
)

// The tests in this file pin the storage the wire path recycles: the
// completion FIFO, and the rx completions NIC.receive takes from its
// subsystem's free list and io_done returns there.

// wantPanic runs f and requires it to panic with exactly msg.
func wantPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		if got := fmt.Sprint(recover()); got != msg {
			t.Fatalf("panic %q, want %q", got, msg)
		}
	}()
	f()
}

// bootPair boots two connected MK40 machines without the reliability
// protocol.
func bootPair(t *testing.T) (a, b *kern.System) {
	t.Helper()
	a, b = bootMK40(t), bootMK40(t)
	dev.Connect(a.Net.NIC, b.Net.NIC, 0)
	return a, b
}

// TestPartlyDrainedCompletionQueue checks that the scans over the
// completion queue see exactly its live entries once its head has moved
// past popped slots: PendingIO counts them, Residue and AbortWaiter find
// only a live request's waiter, and the invariant sweep neither trips
// over a popped slot nor sees a thread that waits again twice.
func TestPartlyDrainedCompletionQueue(t *testing.T) {
	sys := bootMK40(t)
	task := sys.NewTask("waiters")
	var th [3]*core.Thread
	var req [3]*dev.Request
	for i := range th {
		th[i] = task.NewThread(fmt.Sprintf("w%d", i), core.ProgramFunc(
			func(*core.Env, *core.Thread) core.Action { return core.Exit() }), 10)
		req[i] = &dev.Request{Label: "read", Bytes: 512, Waiter: th[i]}
		sys.Dev.PostCompletion(req[i])
	}
	if got := sys.Dev.PopCompletionForTest(); got != req[0] {
		t.Fatalf("popped %v, want the first completion", got)
	}
	residue := func(want ...int) {
		t.Helper()
		for i, w := range want {
			if got := sys.Dev.Residue(th[i]); got != w {
				t.Fatalf("Residue(w%d) = %d, want %d", i, got, w)
			}
		}
	}
	if got := sys.Dev.PendingIO(); got != 2 {
		t.Fatalf("PendingIO = %d, want the 2 live completions", got)
	}
	residue(0, 1, 1)
	if _, ok := sys.Dev.AbortWaiter(th[0]); ok {
		t.Fatal("AbortWaiter found w0, whose completion was popped")
	}
	sys.K.MustValidate()

	// w0 waits on a new request: the popped one must not count twice.
	again := &dev.Request{Label: "read", Bytes: 512, Waiter: th[0]}
	sys.Dev.PostCompletion(again)
	if got := sys.Dev.PendingIO(); got != 3 {
		t.Fatalf("PendingIO = %d after a repost, want 3", got)
	}
	residue(1, 1, 1)
	sys.K.MustValidate()
	if code, ok := sys.Dev.AbortWaiter(th[1]); !ok || code != dev.DevAborted {
		t.Fatalf("AbortWaiter(w1) = %d, %v; want DevAborted", code, ok)
	}
	if req[1].Waiter != nil {
		t.Fatal("abort left w1 attached to its request")
	}
	residue(1, 0, 1)

	for _, want := range []*dev.Request{req[1], req[2], again} {
		if got := sys.Dev.PopCompletionForTest(); got != want {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if got := sys.Dev.PendingIO(); got != 0 {
		t.Fatalf("PendingIO = %d on a drained queue", got)
	}
	residue(0, 0, 0)
	sys.K.MustValidate()
}

// TestDuplicateSharesPacketAcrossRecycledCompletions sends one message
// over a wire that duplicates every packet: the one *Packet arrives
// twice, and the second arrival's rx completion is the first's, back
// from the free list after io_done handed the packet over.
func TestDuplicateSharesPacketAcrossRecycledCompletions(t *testing.T) {
	a, b := bootPair(t)
	a.Net.NIC.Fault = fault.New(5, fault.Spec{DupProb: 1})
	got := startSink(b, "svc")
	b.K.Run(0)
	startSpray(a, "svc", 1)
	a.K.Run(0)

	var posted []*dev.Request
	var pkts []*dev.Packet
	queued := false
	for b.K.Step() {
		reqs, ps := b.Dev.QueuedRxForTest()
		if len(reqs) > 1 {
			t.Fatalf("%d rx completions queued at once", len(reqs))
		}
		if len(reqs) == 1 && !queued {
			posted = append(posted, reqs[0])
			pkts = append(pkts, ps[0])
		}
		queued = len(reqs) == 1
	}
	if a.Net.NIC.Duplicated != 1 || b.Net.NIC.RxPackets != 2 {
		t.Fatalf("duplicated %d, received %d; want 1 and 2", a.Net.NIC.Duplicated, b.Net.NIC.RxPackets)
	}
	if len(posted) != 2 {
		t.Fatalf("%d rx completions posted, want 2", len(posted))
	}
	if posted[0] != posted[1] {
		t.Fatal("the duplicate's rx completion is not the recycled first one")
	}
	if pkts[0] != pkts[1] || pkts[0] == nil {
		t.Fatal("the two completions carried different packets")
	}
	if free := b.Dev.RxFreeForTest(); len(free) != 1 || free[0] != posted[0] {
		t.Fatalf("free list %v, want the one recycled completion", free)
	}
	if len(*got) != 2 || (*got)[0] != 1 || (*got)[1] != 1 {
		t.Fatalf("sink received %v, want the message twice", *got)
	}
	b.K.MustValidate()
}

// TestArrivalsAtCrashedNICThenAdopted sends to a crashed machine, whose
// NIC discards the arrivals before any rx interrupt or completion, then
// reboots it: the adopted NIC delivers through the new incarnation's
// own rx completions.
func TestArrivalsAtCrashedNICThenAdopted(t *testing.T) {
	a, b := bootPair(t)
	var got []int
	b.RegisterService("sink", func(s *kern.System) {
		port := s.IPC.NewPort("svc-local")
		s.Net.Export("svc", port)
		prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			if m := s.IPC.Received(th); m != nil {
				got = append(got, m.Body.(int))
			}
			return core.Syscall("recv", func(e *core.Env) {
				s.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
			})
		})
		s.Start(s.NewTask("sink").NewThread("rcv", prog, 20))
	})
	cluster := kern.NewCluster(a, b)
	cluster.Drive(false)

	b.Crash(0)
	crashed := b.Dev
	startSpray(a, "svc", 3)
	cluster.Drive(false)
	nic := b.Net.NIC
	if nic.RxWhileDown != 3 || nic.RxPackets != 0 || nic.Interrupts != 0 {
		t.Fatalf("down NIC: rx-while-down %d, rx %d, interrupts %d; want 3, 0, 0",
			nic.RxWhileDown, nic.RxPackets, nic.Interrupts)
	}
	if crashed.PendingIO() != 0 || len(crashed.RxFreeForTest()) != 0 {
		t.Fatal("arrivals at a down NIC reached the completion path")
	}

	// Reboot, and let the announcement reach a so its packets carry the
	// new incarnation.
	b.Reboot()
	cluster.Drive(false)
	if b.Net.NIC != nic || b.Dev == crashed {
		t.Fatal("reboot did not adopt the NIC into a new device subsystem")
	}
	startSpray(a, "svc", 3)
	cluster.Drive(false)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("rebooted sink received %v, want [1 2 3]", got)
	}
	if nic.RxWhileDown != 3 || nic.RxPackets != 3 || b.Net.Delivered != 3 {
		t.Fatalf("adopted NIC: rx-while-down %d, rx %d, delivered %d; want 3, 3, 3",
			nic.RxWhileDown, nic.RxPackets, b.Net.Delivered)
	}
	if len(b.Dev.RxFreeForTest()) == 0 || len(crashed.RxFreeForTest()) != 0 {
		t.Fatal("the adopted NIC's completions did not come from the new subsystem")
	}
	a.K.MustValidate()
	b.K.MustValidate()
}

// TestRecycledRxCompletionGuards pins the DebugChecks panics on an rx
// completion used after io_done returned it to the free list: posting
// it, and processing it when it was posted unchecked.
func TestRecycledRxCompletionGuards(t *testing.T) {
	a, b := bootPair(t)
	startSink(b, "svc")
	b.K.Run(0)
	startSpray(a, "svc", 1)
	a.K.Run(0)
	b.K.Run(0)
	free := b.Dev.RxFreeForTest()
	if len(free) != 1 {
		t.Fatalf("%d recycled completions, want 1", len(free))
	}
	r := free[0]
	t.Run("posted after recycling", func(t *testing.T) {
		b.K.DebugChecks = true
		wantPanic(t, "dev: rx completion posted after it was recycled", func() {
			b.Dev.PostCompletion(r)
		})
	})
	t.Run("processed after recycling", func(t *testing.T) {
		b.K.DebugChecks = false
		b.Dev.PostCompletion(r)
		b.K.DebugChecks = true
		wantPanic(t, "dev: rx completion processed after it was recycled", func() {
			b.K.Run(0)
		})
	})
}
