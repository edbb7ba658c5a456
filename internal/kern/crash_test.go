package kern_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
)

func bootNetPair(t *testing.T) (a, b *kern.System, cluster *kern.Cluster) {
	t.Helper()
	cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100}
	a, b = kern.New(cfg), kern.New(cfg)
	dev.Connect(a.Net.NIC, b.Net.NIC, 0)
	a.Net.EnableReliable()
	b.Net.EnableReliable()
	return a, b, kern.NewCluster(a, b)
}

// startSink installs a forever-receiver on an exported port and returns
// the slice of received bodies. Reusable as a service installer.
func startSink(sys *kern.System, wireName string, got *[]int) {
	port := sys.IPC.NewPort(wireName + "-local")
	sys.Net.Export(wireName, port)
	task := sys.NewTask("sink")
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := sys.IPC.Received(th); m != nil {
			*got = append(*got, m.Body.(int))
			sys.IPC.FreeMessage(m)
		}
		return core.Syscall("recv", func(e *core.Env) {
			sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
		})
	})
	sys.Start(task.NewThread("rcv", prog, 20))
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

// TestCrashAndWarmReboot crashes the receiving machine mid-stream and
// checks the whole recovery contract: panic record captured, in-flight
// state dropped, incarnation bumped, boot sequence re-run, and the
// rebooted machine able to receive again.
func TestCrashAndWarmReboot(t *testing.T) {
	a, b, cluster := bootNetPair(t)
	var got []int
	b.RegisterService("sink", func(s *kern.System) { startSink(s, "svc", &got) })
	startSpray(a, "svc", 40)

	b.ScheduleCrash(machine.Time(5*1e6), machine.Duration(10*1e6))
	cluster.Drive(false)

	if b.CrashCount != 1 || b.Reboots != 1 {
		t.Fatalf("CrashCount=%d Reboots=%d, want 1/1", b.CrashCount, b.Reboots)
	}
	if b.Incarnation != 2 {
		t.Fatalf("Incarnation = %d, want 2", b.Incarnation)
	}
	if b.Down {
		t.Fatal("machine still down after reboot")
	}
	rec := b.PanicRecord
	if rec == nil {
		t.Fatal("no panic record captured")
	}
	if rec.Incarnation != 1 {
		t.Fatalf("panic record incarnation = %d, want 1", rec.Incarnation)
	}
	if len(rec.Threads) == 0 {
		t.Fatal("panic record captured no halted continuations")
	}
	// The event fires at the first dispatcher boundary at or after the
	// scheduled tick (execution costs advance the clock between events).
	if rec.At < machine.Time(5*1e6) || rec.At > machine.Time(6*1e6) {
		t.Fatalf("panic record at %v, want ~5ms", rec.At)
	}
	if !strings.Contains(rec.String(), "inc=1") {
		t.Fatalf("panic record string %q", rec.String())
	}
	// The rebooted incarnation received fresh messages: the sink was
	// reinstalled by its service and the sender's retransmits re-stamped
	// nothing — only packets stamped for incarnation 1 are stale.
	if len(got) == 0 {
		t.Fatal("rebooted machine never received a message")
	}
	seen := make(map[int]int)
	for _, v := range got {
		seen[v]++
		if seen[v] > 1 {
			t.Fatalf("message %d delivered twice across the reboot", v)
		}
	}
	// A second crash of a down machine is a no-op; rebooting an up
	// machine likewise.
	down := b.Down
	b.Reboot()
	if b.Reboots != 1 || b.Down != down {
		t.Fatal("Reboot of an up machine was not a no-op")
	}
}

// TestStaleIncarnationPacketDropped is the delayed-packet rule: a packet
// stamped for incarnation k that arrives after the machine rebooted into
// k+1 must be discarded as stale, never delivered — even though a live
// receiver is waiting on the destination port.
func TestStaleIncarnationPacketDropped(t *testing.T) {
	a, b, cluster := bootNetPair(t)
	// Every packet a transmits is held on the wire for 150ms — long
	// enough to overfly b's entire down window (crash at 50ms, reboot at
	// 100ms) and arrive at the new incarnation.
	a.Net.NIC.Fault = fault.New(7, fault.Spec{DelayProb: 1.0, DelayExtra: machine.Duration(150 * 1e6)})
	var got []int
	b.RegisterService("sink", func(s *kern.System) { startSink(s, "svc", &got) })
	startSpray(a, "svc", 1)

	b.ScheduleCrash(machine.Time(50*1e6), machine.Duration(50*1e6))
	cluster.Drive(false)

	if b.Incarnation != 2 {
		t.Fatalf("Incarnation = %d, want 2", b.Incarnation)
	}
	if len(got) != 0 {
		t.Fatalf("stale packet was delivered: got %v", got)
	}
	if b.NetTotals().StaleDropped == 0 {
		t.Fatal("no packet was stale-dropped — the delayed packet never arrived?")
	}
}

// TestCrashDropsUnackedTowardDeadIncarnation: once the sender learns the
// peer rebooted (its announcement carries the new incarnation), packets
// still unacknowledged toward the dead incarnation are declared lost
// immediately instead of burning the full retransmit backoff.
func TestCrashDropsUnackedTowardDeadIncarnation(t *testing.T) {
	a, b, cluster := bootNetPair(t)
	a.Net.NIC.Fault = fault.New(7, fault.Spec{DelayProb: 1.0, DelayExtra: machine.Duration(150 * 1e6)})
	var got []int
	startSink(b, "svc", &got)
	startSpray(a, "svc", 1)
	b.ScheduleCrash(machine.Time(50*1e6), machine.Duration(50*1e6))
	cluster.Drive(false)
	if a.Net.UnackedLen() != 0 {
		t.Fatalf("%d packets still unacked at quiescence", a.Net.UnackedLen())
	}
	if a.NetTotals().Lost == 0 {
		t.Fatal("the doomed packet was never declared lost")
	}
	// Quiescence must arrive well before the full backoff schedule (the
	// un-pruned schedule runs past 2 simulated seconds).
	if now := a.K.Clock.Now(); now > machine.Time(1e9) {
		t.Fatalf("cluster quiesced only at %v — unacked pruning did not fire", now)
	}
}

// exitProg exits on first dispatch.
var exitProg = core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
	return core.Exit()
})

// TestWatchdogStallDetector drives Watchdog.Check by hand: a runnable
// thread with no dispatch progress trips the detector only after the
// stall clock — armed at the first stuck observation, not at the last
// progress — exceeds the threshold.
func TestWatchdogStallDetector(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	w := sys.EnableWatchdog()
	task := sys.NewTask("t")
	sys.Start(task.NewThread("stuck", exitProg, 10))

	// First sight of the stuck queue arms the detector without firing:
	// the thread may have become runnable an instant ago.
	if err := w.Check(); err != nil {
		t.Fatalf("first observation fired early: %v", err)
	}
	sys.K.Clock.Advance(machine.Duration(60 * 1e6))
	err := w.Check()
	if err == nil {
		t.Fatal("stall not detected after 60ms without progress")
	}
	if !strings.Contains(err.Error(), "stall") || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("stall error does not name the stuck thread: %v", err)
	}
	if w.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", w.Stalls)
	}

	// Dispatching clears it.
	sys.K.Run(0)
	if err := w.Check(); err != nil {
		t.Fatalf("watchdog still failing after progress: %v", err)
	}
}

// crossServer is one half of a constructed two-port deadlock: receive a
// priming message from its own port, then send a request to the peer's
// port and block forever awaiting the reply.
type crossServer struct {
	sys        *kern.System
	mine, peer *ipc.Port
	reply      *ipc.Port
	primed     bool
}

func (s *crossServer) Next(e *core.Env, t *core.Thread) core.Action {
	if !s.primed {
		if m := s.sys.IPC.Received(t); m != nil {
			s.sys.IPC.FreeMessage(m)
			s.primed = true
		} else {
			return core.Syscall("prime", func(e *core.Env) {
				s.sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.mine})
			})
		}
	}
	return core.Syscall("cross-rpc", func(e *core.Env) {
		req := s.sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, s.reply)
		s.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send: req, SendTo: s.peer, ReceiveFrom: s.reply,
		})
	})
}

// TestDeadlockDetectorNamesCycle constructs the classic two-port cycle —
// each thread owns a port holding the other's request and each awaits a
// reply only the other can send — and checks the detector reports the
// cycle by thread and continuation name.
func TestDeadlockDetectorNamesCycle(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	w := sys.EnableWatchdog()
	pa := sys.IPC.NewPort("port-a")
	pb := sys.IPC.NewPort("port-b")
	ra := sys.IPC.NewPort("reply-a")
	rb := sys.IPC.NewPort("reply-b")

	ta := sys.NewTask("A")
	tb := sys.NewTask("B")
	sys.Start(ta.NewThread("alpha", &crossServer{sys: sys, mine: pa, peer: pb, reply: ra}, 20))
	sys.Start(tb.NewThread("beta", &crossServer{sys: sys, mine: pb, peer: pa, reply: rb}, 15))

	// The primer makes each thread its port's last receiver before the
	// cross-requests queue up.
	primer := sys.NewTask("primer")
	sent := 0
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if sent >= 2 {
			return core.Exit()
		}
		sent++
		target := pa
		if sent == 2 {
			target = pb
		}
		return core.Syscall("prime-send", func(e *core.Env) {
			m := sys.IPC.NewMessage(9, ipc.HeaderBytes, nil, nil)
			sys.IPC.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: target})
		})
	})
	sys.Start(primer.NewThread("primer", prog, 31))

	sys.K.Run(0)

	cycle := sys.IPC.FindDeadlock()
	if cycle == nil {
		t.Fatal("no deadlock found in a constructed two-port cycle")
	}
	if len(cycle) != 2 {
		t.Fatalf("cycle = %v, want the two cross-blocked threads", cycle)
	}
	joined := strings.Join(cycle, " -> ")
	if !strings.Contains(joined, "alpha") || !strings.Contains(joined, "beta") {
		t.Fatalf("cycle does not name both threads: %v", cycle)
	}
	for _, entry := range cycle {
		if !strings.Contains(entry, "(") || strings.Contains(entry, "(<stack>)") {
			t.Fatalf("cycle entry %q does not name a continuation", entry)
		}
	}

	err := w.Check()
	if err == nil || !strings.Contains(err.Error(), "deadlock cycle") {
		t.Fatalf("watchdog did not surface the deadlock: %v", err)
	}
	if w.Deadlocks != 1 || len(w.LastCycle) != 2 {
		t.Fatalf("Deadlocks=%d LastCycle=%v", w.Deadlocks, w.LastCycle)
	}
}

// leakyReceiver receives one message, keeps it, and exits without
// freeing — the reaper must release the pooled buffer on its behalf.
type leakyReceiver struct {
	sys  *kern.System
	port *ipc.Port
	got  bool
}

func (r *leakyReceiver) Next(e *core.Env, t *core.Thread) core.Action {
	if r.got {
		return core.Exit()
	}
	if m := r.sys.IPC.Received(t); m != nil {
		r.got = true
		// Deliberately neither freed nor consumed: thread exits owning it.
		return core.Exit()
	}
	return core.Syscall("recv", func(e *core.Env) {
		r.sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: r.port})
	})
}

// TestReaperReleasesHaltedThreadResources: a thread that exits while
// owning a delivered message must be fully released by the reaper — the
// reaper's census panics on any leak, so completing the run plus a zero
// residue is the assertion.
func TestReaperReleasesHaltedThreadResources(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	sys.K.DebugChecks = true
	port := sys.IPC.NewPort("leak")
	rt := sys.NewTask("rcv")
	leaky := &leakyReceiver{sys: sys, port: port}
	th := rt.NewThread("leaky", leaky, 20)
	sys.Start(th)

	st := sys.NewTask("snd")
	sent := false
	sys.Start(st.NewThread("sender", core.ProgramFunc(func(e *core.Env, t *core.Thread) core.Action {
		if sent {
			return core.Exit()
		}
		sent = true
		return core.Syscall("send", func(e *core.Env) {
			m := sys.IPC.NewMessage(1, 128, 42, nil)
			sys.IPC.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		})
	}), 10))

	sys.K.Run(0)

	if !leaky.got {
		t.Fatal("receiver never got the message")
	}
	if sys.Reaped < 1 {
		t.Fatalf("Reaped = %d, want >= 1", sys.Reaped)
	}
	if res := sys.IPC.Residue(th); res != 0 {
		t.Fatalf("halted thread still owns %d IPC resources", res)
	}
	sys.K.MustValidate()
}

// refusingServer receives one request and answers it with a typed
// overload refusal instead of servicing it — the admission-reject shape
// every shedding tier uses. The request buffer is freed on dequeue, the
// refusal is a fresh pooled message.
type refusingServer struct {
	sys    *kern.System
	port   *ipc.Port
	served bool
}

func (s *refusingServer) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		reply := m.Reply
		s.sys.IPC.FreeMessage(m)
		s.served = true
		return core.Syscall("refuse", func(e *core.Env) {
			rm := s.sys.IPC.NewMessage(2, 128, "rejected:admission", nil)
			s.sys.IPC.MachMsg(e, ipc.MsgOptions{Send: rm, SendTo: reply})
		})
	}
	if s.served {
		return core.Exit()
	}
	return core.Syscall("recv", func(e *core.Env) {
		s.sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port})
	})
}

// shedCaller sends one op and waits for the reply. On seeing the typed
// refusal it exits still owning the delivered buffer — a shed session
// tearing down without a drain pass. With timeout set it instead parks
// on the receive with an armed callout, the shape a deadline-expired
// caller is aborted out of.
type shedCaller struct {
	sys     *kern.System
	svc     *ipc.Port
	reply   *ipc.Port
	timeout machine.Duration
	sent    bool
	got     string
}

func (c *shedCaller) Next(e *core.Env, t *core.Thread) core.Action {
	if m := c.sys.IPC.Received(t); m != nil {
		c.got, _ = m.Body.(string)
		// Deliberately neither freed nor consumed: the shed path exits
		// owning the refusal buffer.
		return core.Exit()
	}
	if c.sent {
		return core.Exit()
	}
	c.sent = true
	return core.Syscall("call", func(e *core.Env) {
		m := c.sys.IPC.NewMessage(1, 128, "op", c.reply)
		c.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send: m, SendTo: c.svc,
			ReceiveFrom: c.reply, RcvTimeout: c.timeout,
		})
	})
}

// TestReaperReleasesRejectedCallerResources extends the residue
// assertion to the overload rejection paths: a caller that exits owning
// a typed refusal reply, and one aborted out of a blocked receive with
// its timeout callout still armed, must both reap to zero residue — the
// pooled buffer and the waiter registration go back to the free lists,
// so shedding under overload cannot leak pool objects.
func TestReaperReleasesRejectedCallerResources(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	sys.K.DebugChecks = true

	// Path 1: refusal delivered, caller exits owning the buffer.
	svcPort := sys.IPC.NewPort("svc")
	srv := &refusingServer{sys: sys, port: svcPort}
	st := sys.NewTask("srv")
	sys.Start(st.NewThread("server", srv, 20))
	ct := sys.NewTask("cli")
	shed := &shedCaller{sys: sys, svc: svcPort, reply: sys.IPC.NewPort("cli-reply")}
	shedTh := ct.NewThread("shed", shed, 10)
	sys.Start(shedTh)
	sys.Run(0)

	if shed.got != "rejected:admission" {
		t.Fatalf("caller got %q, want the typed refusal", shed.got)
	}
	if res := sys.IPC.Residue(shedTh); res != 0 {
		t.Fatalf("shed caller still owns %d IPC resources", res)
	}

	// Path 2: caller parked on a dead service with an armed receive
	// timeout; the shed decision aborts it mid-wait. The registration
	// must be cancelled and its callout disarmed.
	dead := sys.IPC.NewPort("dead-svc")
	aband := &shedCaller{sys: sys, svc: dead, reply: sys.IPC.NewPort("aband-reply"),
		timeout: machine.Duration(1_000_000_000)}
	abandTh := ct.NewThread("abandoned", aband, 10)
	sys.Start(abandTh)
	// Run up to a probe tick placed well short of the receive timeout:
	// the idle clock jumps event-to-event, so without the tick a bounded
	// Run would overshoot straight into the timeout firing. At the tick
	// the caller is parked with the callout still armed.
	tick := sys.K.Clock.Now() + machine.Duration(1e6)
	sys.K.Clock.Schedule(sys.K.Clock.Now()+machine.Duration(1e6), func(any) {}, nil)
	sys.Run(tick)
	if abandTh.State() != core.StateWaiting {
		t.Fatalf("abandoned caller state = %v, want waiting", abandTh.State())
	}
	armed := sys.K.Clock.Pending()
	if !sys.ThreadAbort(abandTh) {
		t.Fatal("ThreadAbort refused the parked caller")
	}
	// The receive timeout must be disarmed synchronously with the abort
	// (background housekeeping events stay, so compare, don't expect 0).
	if got := sys.K.Clock.Pending(); got != armed-1 {
		t.Fatalf("armed callouts %d -> %d; receive timeout not disarmed", armed, got)
	}
	sys.Run(0)
	if abandTh.State() != core.StateHalted {
		t.Fatalf("abandoned caller state = %v, want halted", abandTh.State())
	}
	if res := sys.IPC.Residue(abandTh); res != 0 {
		t.Fatalf("aborted caller still owns %d IPC resources", res)
	}
	if sys.Reaped < 3 {
		t.Fatalf("Reaped = %d, want >= 3", sys.Reaped)
	}
	sys.K.MustValidate()
}

// TestWatchdogNoSpuriousStallAfterCrashReboot: a machine that crashes
// while the stall detector is armed must not fire a spurious stall in
// the rebooted incarnation. The pre-crash stuck queue died with the old
// incarnation, and the downtime is idleness, not lack of progress — the
// reboot re-registers the watchdog with a fresh baseline, and the Down
// window itself re-baselines the stall clock.
func TestWatchdogNoSpuriousStallAfterCrashReboot(t *testing.T) {
	_, sys, _ := bootNetPair(t)
	sys.K.DebugChecks = true
	w := sys.EnableWatchdog()
	w.StallThreshold = machine.Duration(20 * 1e6)

	task := sys.NewTask("t")
	sys.Start(task.NewThread("stuck", exitProg, 10))
	// First stuck observation arms the stall clock without firing.
	if err := w.Check(); err != nil {
		t.Fatalf("arming observation fired: %v", err)
	}

	// Crash while armed; sit down well past the stall threshold.
	sys.Crash(machine.Duration(60 * 1e6))
	sys.K.Clock.Advance(machine.Duration(30 * 1e6))
	if err := w.Check(); err != nil {
		t.Fatalf("watchdog fired on a down machine: %v", err)
	}
	sys.K.Clock.Advance(machine.Duration(30 * 1e6))
	sys.Reboot()
	if sys.Incarnation != 2 {
		t.Fatalf("Incarnation = %d, want 2", sys.Incarnation)
	}

	// The new incarnation boots with its own runnable threads; neither
	// the stale arming nor the 60ms clock jump may count against them.
	if err := w.Check(); err != nil {
		t.Fatalf("spurious stall after warm reboot: %v", err)
	}
	sys.Run(0)
	if err := w.Check(); err != nil {
		t.Fatalf("watchdog failing after post-reboot dispatch: %v", err)
	}
	if w.Stalls != 0 {
		t.Fatalf("Stalls = %d across crash/reboot, want 0", w.Stalls)
	}
}

// TestNetTotalsCountEachIncarnationOnce: a crashed machine's link
// counters enter its totals once — while it stays down, and after a
// warm reboot replaces its links.
func TestNetTotalsCountEachIncarnationOnce(t *testing.T) {
	a, b, cluster := bootNetPair(t)
	var got []int
	b.RegisterService("sink", func(s *kern.System) { startSink(s, "svc", &got) })
	startSpray(a, "svc", 20)
	b.ScheduleCrash(machine.Time(50*1e6), 0)
	cluster.Drive(false)
	if !b.Down || len(got) == 0 {
		t.Fatalf("down %v after receiving %d messages; want a crashed receiver", b.Down, len(got))
	}
	down := b.NetTotals()
	if down.Delivered != b.Net.Delivered || down.AcksTx != b.Net.AcksTx {
		t.Fatalf("down machine totals %d delivered, %d acks sent; its one link %d and %d",
			down.Delivered, down.AcksTx, b.Net.Delivered, b.Net.AcksTx)
	}
	b.Reboot()
	if up := b.NetTotals(); up.Delivered != down.Delivered || up.AcksTx != down.AcksTx {
		t.Fatalf("after reboot totals %d delivered, %d acks sent; before %d and %d",
			up.Delivered, up.AcksTx, down.Delivered, down.AcksTx)
	}
}
