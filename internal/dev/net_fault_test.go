package dev_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/workload"
)

// bootLossyPair boots two connected machines with the reliability
// protocol on and the given fault plan injecting on a's NIC (the b→a ack
// direction stays clean, isolating the data-path behaviour under test).
func bootLossyPair(t *testing.T, plan *fault.Plan) (a, b *kern.System, cluster *kern.Cluster) {
	t.Helper()
	a, b = bootMK40(t), bootMK40(t)
	a.K.DebugChecks = true
	b.K.DebugChecks = true
	dev.Connect(a.Net.NIC, b.Net.NIC, 0)
	a.Net.NIC.Fault = plan
	a.Net.EnableReliable()
	b.Net.EnableReliable()
	return a, b, kern.NewCluster(a, b)
}

// startSink registers an exported port on sys and a thread receiving on
// it forever; returns the slice the received bodies accumulate into.
func startSink(sys *kern.System, wireName string) *[]int {
	port := sys.IPC.NewPort(wireName + "-local")
	sys.Net.Export(wireName, port)
	got := new([]int)
	task := sys.NewTask("sink")
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := sys.IPC.Received(th); m != nil {
			*got = append(*got, m.Body.(int))
		}
		return core.Syscall("recv", func(e *core.Env) {
			sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
		})
	})
	sys.Start(task.NewThread("rcv", prog, 20))
	return got
}

// startSpray sends n one-way messages from sys to the named remote port.
func startSpray(sys *kern.System, remote string, n int) {
	proxy := sys.Net.ProxyFor(remote)
	task := sys.NewTask("spray")
	sent := 0
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if sent >= n {
			return core.Exit()
		}
		sent++
		seq := sent
		return core.Syscall("net-send", func(e *core.Env) {
			m := sys.IPC.NewMessage(1, 256, seq, nil)
			sys.IPC.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: proxy})
		})
	})
	sys.Start(task.NewThread("tx", prog, 10))
}

// checkExactlyOnce asserts every message 1..n arrived exactly once.
func checkExactlyOnce(t *testing.T, got []int, n int) {
	t.Helper()
	seen := make(map[int]int)
	for _, v := range got {
		seen[v]++
	}
	for i := 1; i <= n; i++ {
		if seen[i] != 1 {
			t.Fatalf("message %d delivered %d times (got %d total)", i, seen[i], len(got))
		}
	}
	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d", len(got), n)
	}
}

func TestReliableDeliveryUnderPacketLoss(t *testing.T) {
	// 30%% injected drop on the data path: every message still arrives
	// exactly once, carried by retransmissions.
	const n = 30
	a, b, cluster := bootLossyPair(t, fault.New(42, fault.Spec{DropProb: 0.3}))
	got := startSink(b, "svc")
	startSpray(a, "svc", n)
	cluster.Drive(false)
	checkExactlyOnce(t, *got, n)
	if a.Net.NIC.Fault.Stats.Drops == 0 {
		t.Fatal("fault plan injected no drops — test is vacuous")
	}
	if a.Net.Retransmits == 0 {
		t.Fatal("no retransmissions despite drops")
	}
	if a.Net.UnackedLen() != 0 {
		t.Fatalf("%d packets still unacked at quiescence", a.Net.UnackedLen())
	}
	if a.Net.Lost != 0 {
		t.Fatalf("%d packets declared lost under recoverable loss", a.Net.Lost)
	}
	if a.Net.AcksRx == 0 || b.Net.AcksTx == 0 {
		t.Fatalf("ack flow broken: rx=%d tx=%d", a.Net.AcksRx, b.Net.AcksTx)
	}
	a.K.MustValidate()
	b.K.MustValidate()
}

func TestReliableDeliveryDropsDuplicates(t *testing.T) {
	// Every data packet is duplicated on the wire: the receiver delivers
	// each message once and suppresses the copies.
	const n = 10
	a, b, cluster := bootLossyPair(t, fault.New(5, fault.Spec{DupProb: 1}))
	got := startSink(b, "svc")
	startSpray(a, "svc", n)
	cluster.Drive(false)
	checkExactlyOnce(t, *got, n)
	if b.Net.DupsDropped == 0 {
		t.Fatal("no duplicates suppressed despite 100%% duplication")
	}
	if a.Net.UnackedLen() != 0 {
		t.Fatalf("%d packets still unacked", a.Net.UnackedLen())
	}
}

func TestReliableDeliverySurvivesReorder(t *testing.T) {
	// Random extra wire delay lets later packets overtake earlier ones;
	// delivery is still exactly-once (the protocol does not promise
	// ordering, only completeness).
	const n = 20
	a, b, cluster := bootLossyPair(t, fault.New(11, fault.Spec{
		DelayProb:  0.5,
		DelayExtra: dev.DefaultWireLatency * 3,
	}))
	got := startSink(b, "svc")
	startSpray(a, "svc", n)
	cluster.Drive(false)
	checkExactlyOnce(t, *got, n)
	if a.Net.NIC.Fault.Stats.Delays == 0 {
		t.Fatal("fault plan injected no delays — test is vacuous")
	}
	// Once the overtaken packets arrive, the watermark absorbs the ones
	// that overtook them.
	if low, above := b.Net.DedupForTest(); low != n || above != 0 {
		t.Fatalf("dedup watermark %d with %d above it, want %d with 0", low, above, n)
	}
}

func TestReliableInOrderLeavesDedupSetEmpty(t *testing.T) {
	// A clean wire delivers the peer's packets in order, so the dedup
	// watermark follows them and nothing waits in the set above it.
	const n = 10000
	a, b, cluster := bootLossyPair(t, nil)
	a.K.DebugChecks, b.K.DebugChecks = false, false // 10 000 packets: skip the per-step sweep
	got := startSink(b, "svc")
	startSpray(a, "svc", n)
	cluster.Drive(false)
	checkExactlyOnce(t, *got, n)
	if low, above := b.Net.DedupForTest(); low != n || above != 0 {
		t.Fatalf("dedup watermark %d with %d above it, want %d with 0", low, above, n)
	}
}

func TestUnreliableTrafficStillLosesPackets(t *testing.T) {
	// Without the protocol the same loss rate silently eats messages —
	// the regression guard that Reliable is doing the work.
	const n = 30
	a, b := bootMK40(t), bootMK40(t)
	dev.Connect(a.Net.NIC, b.Net.NIC, 0)
	a.Net.NIC.Fault = fault.New(42, fault.Spec{DropProb: 0.3})
	cluster := kern.NewCluster(a, b)
	got := startSink(b, "svc")
	startSpray(a, "svc", n)
	cluster.Drive(false)
	if len(*got) >= n {
		t.Fatalf("delivered %d of %d despite 30%% drop and no retransmission", len(*got), n)
	}
	if a.Net.Retransmits != 0 {
		t.Fatal("best-effort path retransmitted")
	}
}

func TestRetransmitGivesUpAfterMax(t *testing.T) {
	// Total blackout: every data packet is dropped, so after RexmitMax
	// doubling backoffs each packet is declared lost and the sender's
	// tracking table drains — no callout leaks, no unbounded retries.
	const n = 3
	a, b, cluster := bootLossyPair(t, fault.New(1, fault.Spec{DropProb: 1}))
	got := startSink(b, "svc")
	startSpray(a, "svc", n)
	cluster.Drive(false)
	if len(*got) != 0 {
		t.Fatalf("delivered %d messages through a total blackout", len(*got))
	}
	if a.Net.Lost != n {
		t.Fatalf("lost = %d, want %d", a.Net.Lost, n)
	}
	if a.Net.UnackedLen() != 0 {
		t.Fatalf("%d packets still tracked after giving up", a.Net.UnackedLen())
	}
	if got := a.K.Clock.Pending(); got != 0 {
		t.Fatalf("%d retransmit timers leaked", got)
	}
	wantSends := uint64(n) * uint64(1+a.Net.RexmitMax)
	if a.Net.NIC.TxPackets != wantSends {
		t.Fatalf("tx packets = %d, want %d (1 + RexmitMax per message)",
			a.Net.NIC.TxPackets, wantSends)
	}
}

// TestRebuiltLinkDedupStaysSmall runs the replicated KV with its backup
// crashing at 40 ms and warm-rebooting 40 ms later. The rebooted
// machine's links hear their peers' numbering mid-stream, so their
// watermarks stay at 0, yet every link of every machine must end with at
// most two intervals of delivered numbers above its watermark (the map
// that preceded the intervals held one entry per packet, 55 to 116 on
// the rebooted machine's links).
func TestRebuiltLinkDedupStaysSmall(t *testing.T) {
	spec, err := fault.ParseSpec("crash=2@40ms:reboot+40ms")
	if err != nil {
		t.Fatal(err)
	}
	kv := workload.DefaultKV()
	kv.FaultSpec = spec
	res := workload.RunKV(kern.MK40, machine.ArchToshiba5200, kv)
	if res.Machines[2].Reboots != 1 {
		t.Fatalf("machine 2 rebooted %d times, want 1", res.Machines[2].Reboots)
	}
	rebuilt := 0
	for i, s := range res.Machines {
		for j, l := range s.Links {
			low, intervals := l.DedupForTest()
			if intervals > 2 {
				t.Errorf("machine %d link %d: %d intervals above watermark %d, want at most 2", i, j, intervals, low)
			}
			if i == 2 && low == 0 && intervals > 0 {
				rebuilt++
			}
		}
	}
	if rebuilt == 0 {
		t.Fatalf("no link of the rebooted machine heard its peer mid-stream; the run no longer exercises a rebuilt link")
	}
}
