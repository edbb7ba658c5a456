package dev_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
)

// The tests in this file pin the two lifetime rules of the recycled wire
// path under every kernel: a packet has one owner (the sending machine's
// free list, one arrival, the receiving machine's free list), and a
// timer has one holder, which drops its handle once the timer has
// fired or been cancelled.

var lifetimeFlavors = []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25}

// bootCheckedPair boots two connected machines of flavor f with the
// DebugChecks guards on.
func bootCheckedPair(t *testing.T, f kern.Flavor) (a, b *kern.System) {
	t.Helper()
	cfg := kern.Config{Flavor: f, Arch: machine.ArchDS3100, DisableCallout: true, DiskLatency: fastDisk}
	a, b = kern.New(cfg), kern.New(cfg)
	a.K.DebugChecks, b.K.DebugChecks = true, true
	dev.Connect(a.Net.NIC, b.Net.NIC, 0)
	return a, b
}

// sleepResume returns 0 from sendSleepSend's sleep.
var sleepResume = core.NewContinuation("test_sleep_done", func(e *core.Env) { e.K.ThreadSyscallReturn(e, 0) })

// sendSleepSend starts a thread on sys that sends message 1 to the named
// remote port, sleeps for gap, then sends message 2 (none when gap is 0).
func sendSleepSend(sys *kern.System, remote string, gap machine.Duration) {
	proxy := sys.Net.ProxyFor(remote)
	send := func(body int) core.Action {
		return core.Syscall("net-send", func(e *core.Env) {
			sys.IPC.MachMsg(e, ipc.MsgOptions{Send: sys.IPC.NewMessage(1, 256, body, nil), SendTo: proxy})
		})
	}
	step := 0
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		step++
		switch {
		case step == 1:
			return send(1)
		case step == 2 && gap > 0:
			return core.Syscall("sleep", func(e *core.Env) {
				t := e.Cur()
				e.K.WakeAt(e.K.Clock.Now()+gap, t)
				e.K.SetState(t, core.StateWaiting)
				e.K.Block(e, stats.BlockInternal, sleepResume, nil, 96, "test-sleep")
			})
		case step == 3:
			return send(2)
		}
		return core.Exit()
	})
	sys.Start(sys.NewTask("sender").NewThread("tx", prog, 10))
}

// wireArrival is one arrival seen at a NIC.
type wireArrival struct {
	at   machine.Time
	seq  uint64
	ack  bool
	body any
	sent machine.Time
}

// recordArrivals makes every arrival at sys's NIC append to the returned
// list, then run then (when non-nil).
func recordArrivals(sys *kern.System, then func(wireArrival)) *[]wireArrival {
	seen := new([]wireArrival)
	sys.Net.NIC.OnArrivalForTest(func(p *dev.Packet) {
		w := wireArrival{at: sys.K.Clock.Now(), seq: p.Seq, ack: p.Ack, body: p.Body, sent: p.SentAt}
		*seen = append(*seen, w)
		if then != nil {
			then(w)
		}
	})
	return seen
}

// TestAckLandsWhileCopyWaitsInOutbox times a's retransmit timer to fire
// at the instant the ack lands, so the ack arrives while the timer's copy
// of message 1 waits in the outbox. netmsg sends the copy and then takes
// the ack, which recycles the unacked record. Message 2 reuses the
// record while the copy is still on the wire, and the copy still reaches
// b whole, where it is deduplicated.
func TestAckLandsWhileCopyWaitsInOutbox(t *testing.T) {
	for _, f := range lifetimeFlavors {
		t.Run(f.FlagName(), func(t *testing.T) {
			// A probe run times message 1's flight and its ack's.
			a, b := bootCheckedPair(t, f)
			a.Net.EnableReliable()
			b.Net.EnableReliable()
			atB := recordArrivals(b, nil)
			atA := recordArrivals(a, nil)
			startSink(b, "svc")
			sendSleepSend(a, "svc", 0)
			kern.NewCluster(a, b).Drive(false)
			if len(*atB) != 1 || len(*atA) != 1 || !(*atA)[0].ack {
				t.Fatalf("probe: %d arrivals at b, %d at a; want message 1 and its ack", len(*atB), len(*atA))
			}
			sent, acked := (*atB)[0].sent, (*atA)[0].at

			a, b = bootCheckedPair(t, f)
			a.Net.EnableReliable()
			b.Net.EnableReliable()
			a.Net.RexmitTimeout = acked - sent
			var rec1 any
			recordArrivals(a, func(w wireArrival) {
				if !w.ack || w.seq != 1 || rec1 != nil {
					return
				}
				out := a.Net.OutboxForTest()
				if len(out) != 1 || out[0].Seq != 1 || out[0].Body != 1 {
					t.Errorf("ack landed with outbox %v, want the copy of message 1", out)
				}
				rec1 = a.Net.UnackedRecordForTest(1)
				// Message 2 waits for its ack with the default timer.
				a.Net.RexmitTimeout = dev.DefaultRexmitTimeout
			})
			var reused bool
			atB = recordArrivals(b, func(w wireArrival) {
				if len(*atB) == 2 {
					reused = rec1 != nil && a.Net.UnackedRecordForTest(2) == rec1
				}
			})
			got := startSink(b, "svc")
			sendSleepSend(a, "svc", acked-sent+200_000)
			kern.NewCluster(a, b).Drive(false)

			if a.Net.Retransmits != 1 {
				t.Fatalf("%d retransmissions, want the one copy", a.Net.Retransmits)
			}
			var data []wireArrival
			for _, w := range *atB {
				if !w.ack {
					data = append(data, w)
				}
			}
			if len(data) != 3 || data[1].seq != 1 || data[1].body != 1 || data[1].sent != sent ||
				data[2].seq != 2 || data[2].body != 2 {
				t.Fatalf("b saw data arrivals %+v; want message 1, its whole copy, then message 2", data)
			}
			if !reused {
				t.Fatal("message 2 did not reuse message 1's recycled record while the copy flew")
			}
			if b.Net.DupsDropped != 1 || len(*got) != 2 || (*got)[0] != 1 || (*got)[1] != 2 {
				t.Fatalf("b dropped %d duplicates and delivered %v; want 1 and [1 2]", b.Net.DupsDropped, *got)
			}
			if a.Net.UnackedLen() != 0 || a.Net.UnackedFreeForTest() != 1 {
				t.Fatalf("a holds %d unacked and %d free records; want 0 and the one record",
					a.Net.UnackedLen(), a.Net.UnackedFreeForTest())
			}
			a.K.MustValidate()
			b.K.MustValidate()
		})
	}
}

// TestReliableLinkPacketsOwned runs traffic both ways over a reliable
// link that drops, duplicates and delays packets in both directions,
// one horizon round at a time. After every round each packet the two
// machines ever made is on one of their free lists, held by one of them
// (rx completion, inbox, outbox), or in flight; once the run quiesces
// every packet is on a free list, exactly once.
func TestReliableLinkPacketsOwned(t *testing.T) {
	for _, f := range lifetimeFlavors {
		t.Run(f.FlagName(), func(t *testing.T) {
			a, b := bootCheckedPair(t, f)
			spec := fault.Spec{DropProb: 0.2, DupProb: 0.2, DelayProb: 0.3, DelayExtra: 2_000_000}
			a.Net.NIC.Fault = fault.New(11, spec)
			b.Net.NIC.Fault = fault.New(12, spec)
			a.Net.EnableReliable()
			b.Net.EnableReliable()
			gotB, gotA := startSink(b, "svc"), startSink(a, "svc")
			startSpray(a, "svc", 25)
			startSpray(b, "svc", 25)
			inFlight := func(from, to *dev.NIC) int {
				emitted := from.TxPackets - from.Severed - from.Fault.Stats.Drops + from.Fault.Stats.Dups
				return int(emitted - to.RxPackets - to.RxWhileDown)
			}
			cluster := kern.NewCluster(a, b)
			cluster.SetDeferredForTest(true)
			defer cluster.SetDeferredForTest(false)
			rounds := 0
			for {
				_, ok := cluster.RoundForTest()
				if !ok {
					break
				}
				rounds++
				made := a.Dev.PacketsMadeForTest() + b.Dev.PacketsMadeForTest()
				owned := len(a.Dev.PacketFreeForTest()) + len(b.Dev.PacketFreeForTest()) +
					a.Net.HeldForTest() + b.Net.HeldForTest() +
					inFlight(a.Net.NIC, b.Net.NIC) + inFlight(b.Net.NIC, a.Net.NIC)
				if owned != made {
					t.Fatalf("round %d: %d packets made, %d free, held or in flight", rounds, made, owned)
				}
			}
			if st := a.Net.NIC.Fault.Stats; st.Drops == 0 || st.Dups == 0 || st.Delays == 0 || a.Net.Retransmits == 0 {
				t.Fatalf("faults did not bite: dropped %d, duplicated %d, delayed %d, retransmits %d",
					st.Drops, st.Dups, st.Delays, a.Net.Retransmits)
			}
			checkExactlyOnce(t, *gotB, 25)
			checkExactlyOnce(t, *gotA, 25)
			seen := make(map[*dev.Packet]bool)
			for _, p := range append(a.Dev.PacketFreeForTest(), b.Dev.PacketFreeForTest()...) {
				if seen[p] || !p.FreeForTest() {
					t.Fatalf("packet %p on the free lists twice or unmarked", p)
				}
				seen[p] = true
			}
			if made := a.Dev.PacketsMadeForTest() + b.Dev.PacketsMadeForTest(); len(seen) != made {
				t.Fatalf("%d packets made, %d on the free lists at quiescence", made, len(seen))
			}
			a.K.MustValidate()
			b.K.MustValidate()
		})
	}
}

// TestCrashedNICReturnsDiscardedArrivals sends to a crashed machine: its
// NIC discards each arrival at the interrupt boundary and returns the
// packet to the crashed incarnation's free list.
func TestCrashedNICReturnsDiscardedArrivals(t *testing.T) {
	for _, f := range lifetimeFlavors {
		t.Run(f.FlagName(), func(t *testing.T) {
			a, b := bootCheckedPair(t, f)
			startSink(b, "svc")
			cluster := kern.NewCluster(a, b)
			cluster.Drive(false)
			b.Crash(0)
			crashed := b.Dev
			startSpray(a, "svc", 3)
			cluster.Drive(false)
			if b.Net.NIC.RxWhileDown != 3 {
				t.Fatalf("down NIC discarded %d arrivals, want 3", b.Net.NIC.RxWhileDown)
			}
			free := crashed.PacketFreeForTest()
			if len(free) != 3 {
				t.Fatalf("crashed machine's free list holds %d packets, want the 3 discarded", len(free))
			}
			for _, p := range free {
				if !p.FreeForTest() {
					t.Fatal("a discarded packet is not marked free")
				}
			}
			if made := a.Dev.PacketsMadeForTest(); made != 3 {
				t.Fatalf("sender made %d packets, want 3", made)
			}
		})
	}
}
