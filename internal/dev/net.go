// NIC pair and the in-kernel netmsg forwarding thread: the device
// subsystem's network half. Two simulated machines are joined by
// connecting their NICs; a send to a proxy port on one machine becomes a
// packet on the wire, an rx interrupt on the other, a deferred completion
// through the io_done thread, and finally a local ipc delivery by the
// netmsg thread — Table 1's "internal threads" row earning its keep on a
// cross-machine RPC.
package dev

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// DefaultWireLatency is the one-way packet latency between two machines
// (propagation plus serialization on a paper-era 10 Mbit Ethernet).
const DefaultWireLatency = machine.Duration(400 * 1000) // 400 µs

var (
	// nicTxCost is the transmit path: build the packet header, program
	// the DMA ring.
	nicTxCost = machine.Cost{Instrs: 180, Loads: 50, Stores: 60}
	// nicRxHandlerCost is the rx interrupt handler body: acknowledge the
	// controller, take the packet off the ring.
	nicRxHandlerCost = machine.Cost{Instrs: 110, Loads: 40, Stores: 20}
	// netmsgDemuxCost is the netmsg thread's per-packet protocol work:
	// checksum, port-name demultiplex, message reconstruction.
	netmsgDemuxCost = machine.Cost{Instrs: 150, Loads: 60, Stores: 30}
)

// Packet is one message on the wire between two machines.
type Packet struct {
	// DstPort names the destination port among the receiving machine's
	// named exports (a request to a service). A reply instead carries
	// DstRoute: the reply route the request named, an index into the
	// receiving link's route table. Route 0 is none.
	DstPort  string
	DstRoute uint32
	// ReplyRoute, when nonzero, is the reply route (on the sending
	// link) that the receiver's reply should be addressed to.
	ReplyRoute uint32

	OpID uint32
	Size int
	Body any

	// Seq numbers a data packet when the sending netmsg thread runs its
	// reliability protocol (zero on best-effort traffic); Ack marks the
	// acknowledgement packet that quiets the sender's retransmit timer
	// for that sequence number.
	Seq uint64
	Ack bool

	// SrcInc and DstInc are the boot incarnation numbers of the sending
	// machine and of the destination machine as the sender last knew it.
	// A receiver discards packets stamped for a previous incarnation of
	// itself (a retransmit that outlived a crash) or stamped by a peer
	// incarnation it already knows to be dead; zero means unstamped and
	// is always accepted. Every stamped arrival doubles as a piggybacked
	// heartbeat for the membership layer.
	SrcInc uint32
	DstInc uint32

	// Heartbeat marks an explicit incarnation announcement: it carries no
	// payload and is consumed by the receiving netmsg thread's membership
	// bookkeeping instead of being delivered to a port.
	Heartbeat bool

	// Trace is the forwarded message's causal-trace context, part of the
	// netmsg framing: the receiver re-stamps it onto the reconstructed
	// message and records the flight as a wire span. SentAt is the
	// sender's transmit time (cluster clocks share one timeline), set
	// once at first transmission so a retransmitted packet's wire span
	// covers the whole loss-and-backoff window. Both are immutable after
	// first transmit — a retransmitted *Packet is shared with the
	// receiving machine.
	Trace  obs.TraceContext
	SentAt machine.Time

	// Deadline forwards the message's absolute overload-control
	// deadline across the wire (zero when none). Like Trace it is part
	// of the framing: the receiver re-stamps it onto the reconstructed
	// message so every tier sees the same budget.
	Deadline machine.Time
}

// ackBytes is the wire size of a bare acknowledgement packet.
const ackBytes = 32

// NIC is a network interface. Transmit puts packets on the wire to the
// connected peer; arrival raises an rx interrupt on the peer's machine,
// whose deferred completion hands the packet to the peer's netmsg thread.
type NIC struct {
	Name string
	Sub  *Subsystem

	// Wire is the one-way packet latency to the peer.
	Wire machine.Duration

	peer *NIC

	// index is this NIC's creation order on its machine; together with the
	// sender's emission counter it forms the deterministic tie-break key
	// for arrivals scheduled on this machine's clock.
	index int

	// txSeq numbers every arrival this NIC emits (including injected
	// duplicates), in transmit order.
	txSeq uint64

	// deferOn buffers outbound arrivals in pending instead of touching the
	// peer's clock — the parallel cluster driver sets it so a machine's
	// round never mutates another machine's state; the coordinator flushes
	// at the barrier. dirtyMark records that this NIC is already on its
	// subsystem's dirty list for the current round.
	deferOn   bool
	dirtyMark bool
	pending   []wireDelivery

	// rxLabel and rxDupLabel are the arrival event labels, precomputed at
	// Connect so the transmit path does not build strings per packet.
	rxLabel    string
	rxDupLabel string

	// onArrive (the arrival events' action), rxIntr (the rx interrupt
	// handler) and its label are bound at this NIC's first arrival
	// instead of at boot. rxPkt hands the arriving packet to rxIntr.
	onArrive    func(any)
	rxIntr      func(*core.Env)
	rxIntrLabel string
	rxPkt       *Packet

	// handler consumes received packets in io_done context; the netmsg
	// thread installs itself here.
	handler func(e *core.Env, pkt *Packet)

	// down marks the NIC's machine as crashed: arrivals are discarded
	// before the rx interrupt is raised (there are no interrupt vectors,
	// threads or stacks to take it on).
	down bool

	// Fault, when non-nil, injects wire faults on transmit: packet drop,
	// duplication, and delay (reordering).
	Fault *fault.Plan

	// Topo, when non-nil, is the cluster's shared topology-fault schedule
	// (partitions, asymmetric link faults), consulted per transmit with
	// Machine as this NIC's cluster machine index. Read-only and a pure
	// function of time, so sharing one Topology across machines is safe
	// under the parallel driver. Both survive a warm reboot with the NIC.
	Topo    *fault.Topology
	Machine int

	// Counters.
	TxPackets   uint64
	RxPackets   uint64
	Interrupts  uint64
	Dropped     uint64 // transmissions lost to injected drops
	Duplicated  uint64 // transmissions that arrived twice
	Delayed     uint64 // transmissions held back on the wire
	Severed     uint64 // transmissions cut by a partition or drop-link window
	LinkDelayed uint64 // transmissions slowed by a delay-link window
	RxWhileDown uint64 // arrivals discarded because the machine was down
}

// wireDelivery is one packet arrival bound for the peer machine, buffered
// while a parallel round executes.
type wireDelivery struct {
	at    machine.Time
	key   uint64
	label string
	pkt   *Packet
}

// NewNIC registers a NIC on this machine.
func (s *Subsystem) NewNIC(name string) *NIC {
	n := &NIC{Name: name, Sub: s, Wire: DefaultWireLatency, index: len(s.nics)}
	s.nics = append(s.nics, n)
	return n
}

// NICs returns the machine's NICs in creation order.
func (s *Subsystem) NICs() []*NIC { return s.nics }

// AdoptNIC re-registers a NIC surviving from a previous incarnation of
// this machine into a freshly booted device subsystem (the hardware,
// its wiring and its transmit history outlive a warm reboot). NICs must
// be adopted in their original creation order so the deterministic
// arrival tie-break keys keep their meaning.
func (s *Subsystem) AdoptNIC(n *NIC) {
	if n.index != len(s.nics) {
		panic(fmt.Sprintf("dev: AdoptNIC of %q out of order (index %d, have %d NICs)",
			n.Name, n.index, len(s.nics)))
	}
	n.Sub = s
	n.handler = nil
	s.nics = append(s.nics, n)
	// Deliveries buffered before the crash are still on the wire; carry
	// them onto the new incarnation's dirty list so the barrier flush
	// does not strand them.
	n.dirtyMark = len(n.pending) > 0
	if n.dirtyMark {
		s.dirtyNICs = append(s.dirtyNICs, n)
	}
}

// SetDown marks the NIC's machine as crashed (true) or rebooted (false).
// While down, packets already on the wire still arrive — a crash cannot
// recall them — but are discarded at the interrupt boundary.
func (n *NIC) SetDown(down bool) { n.down = down }

// Connect joins two NICs (usually on different machines) with the given
// wire latency (DefaultWireLatency if 0).
func Connect(a, b *NIC, wire machine.Duration) {
	if wire == 0 {
		wire = DefaultWireLatency
	}
	a.peer, b.peer = b, a
	a.Wire, b.Wire = wire, wire
	a.rxLabel, a.rxDupLabel = a.Name+"-rx", a.Name+"-rx-dup"
	b.rxLabel, b.rxDupLabel = b.Name+"-rx", b.Name+"-rx-dup"
}

// Peer returns the connected NIC, nil when unconnected.
func (n *NIC) Peer() *NIC { return n.peer }

// emitWireFault records a wire fault-plan firing in the transmitting
// kernel's event stream.
func (n *NIC) emitWireFault(e *core.Env, what string) {
	r := n.Sub.K.Obs
	if r == nil {
		return
	}
	tid, name := 0, ""
	if t := e.Cur(); t != nil {
		tid, name = t.ID, t.Name
	}
	r.Emit(obs.FaultInject, tid, name, n.Name+" "+what)
}

// Transmit puts a packet on the wire in the sender's kernel context.
// Arrival is scheduled on the peer machine's clock at an absolute time,
// so two machines with independent clocks agree on when the wire
// delivers. Does not transfer control.
func (n *NIC) Transmit(e *core.Env, pkt *Packet) {
	if n.peer == nil {
		panic(fmt.Sprintf("dev: Transmit on unconnected NIC %q", n.Name))
	}
	e.Charge(nicTxCost.Plus(machine.CopyBytes(pkt.Size)))
	n.TxPackets++
	now := n.Sub.K.Clock.Now()
	// Topology faults come first and are deterministic functions of time —
	// a severed packet consumes no draws from the probabilistic plan, so a
	// spec without topology rules keeps its exact fault stream.
	if n.Topo.CutAt(n.Machine, n.peer.Machine, now) {
		n.Severed++
		n.emitWireFault(e, "cut")
		return
	}
	if n.Fault.DropPacket() {
		// Lost on the wire: the sender already paid the tx cost and, if
		// running the reliability protocol, will retransmit.
		n.Dropped++
		n.emitWireFault(e, "drop")
		return
	}
	wire := n.Wire
	if extra := n.Topo.ExtraDelay(n.Machine, n.peer.Machine, now); extra > 0 {
		// Degraded link: every packet in the window is late by the same
		// amount, unlike the probabilistic reordering delay below.
		n.LinkDelayed++
		n.emitWireFault(e, fmt.Sprintf("link delay +%dus", uint64(extra)/1000))
		wire += extra
	}
	if extra := n.Fault.DelayPacket(); extra > 0 {
		// Held back: a later transmission can overtake this one.
		n.Delayed++
		n.emitWireFault(e, fmt.Sprintf("delay +%dus", uint64(extra)/1000))
		wire += extra
	}
	peer := n.peer
	arrival := now + wire
	n.deliverAt(arrival, peer.rxLabel, pkt)
	if n.Fault.DupPacket() {
		n.Duplicated++
		n.emitWireFault(e, "duplicate")
		n.deliverAt(arrival+n.Wire/2, peer.rxDupLabel, pkt)
	}
}

// deliverAt schedules (or, during a parallel round, buffers) one arrival
// on the peer machine's clock. The tie-break key — receiving NIC index
// plus this NIC's emission counter — is what makes the peer's event-heap
// order identical under the sequential and parallel drivers: at equal
// arrival times, wire events order after the peer's local events and
// among themselves by emission order, never by scheduling order.
func (n *NIC) deliverAt(at machine.Time, label string, pkt *Packet) {
	peer := n.peer
	key := uint64(peer.index)<<32 | (n.txSeq & 0xffffffff)
	n.txSeq++
	if n.deferOn {
		if !n.dirtyMark {
			n.dirtyMark = true
			n.Sub.dirtyNICs = append(n.Sub.dirtyNICs, n)
		}
		n.pending = append(n.pending, wireDelivery{at: at, key: key, label: label, pkt: pkt})
		return
	}
	peer.Sub.K.Clock.ScheduleRemote(at, key, label, peer.arrival(), pkt)
}

// arrival returns the action of an arrival event on this NIC, bound at
// the first packet sent to it.
func (n *NIC) arrival() func(any) {
	if n.onArrive == nil {
		n.onArrive = n.arrive
	}
	return n.onArrive
}

// arrive is an arrival event firing on this NIC's machine.
func (n *NIC) arrive(pkt any) { n.receive(pkt.(*Packet)) }

// SetDeferred switches the NIC between immediate delivery (scheduling on
// the peer's clock from the sender's context) and deferred delivery
// (buffering for a barrier flush). Only cluster drivers toggle this.
func (n *NIC) SetDeferred(on bool) { n.deferOn = on }

// FlushDeferred schedules every buffered arrival on the peer's clock and
// returns how many were delivered. Called single-threaded at a parallel
// round's barrier.
func (n *NIC) FlushDeferred() int {
	cnt := len(n.pending)
	peer := n.peer
	for i := range n.pending {
		d := n.pending[i]
		peer.Sub.K.Clock.ScheduleRemote(d.at, d.key, d.label, peer.arrival(), d.pkt)
		n.pending[i] = wireDelivery{}
	}
	n.pending = n.pending[:0]
	n.dirtyMark = false
	return cnt
}

// PendingDeferred reports how many buffered deliveries await the next
// flush — the cross-check that a dirty-list flush stranded nothing.
func (n *NIC) PendingDeferred() int { return len(n.pending) }

// FlushDirtyDeferred drains only the NICs that buffered deliveries since
// the last flush, in NIC-index order (first-buffer order within a round
// is deterministic but not index-ordered, so the short list is sorted to
// keep the documented machine/NIC/emission flush order). Called
// single-threaded at a round's barrier.
func (s *Subsystem) FlushDirtyDeferred() int {
	if len(s.dirtyNICs) == 0 {
		return 0
	}
	d := s.dirtyNICs
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j].index < d[j-1].index; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
	cnt := 0
	for i, n := range d {
		cnt += n.FlushDeferred()
		d[i] = nil
	}
	s.dirtyNICs = s.dirtyNICs[:0]
	return cnt
}

// FlushAllDeferred drains every NIC regardless of dirty state — the
// reference full-scan flush — and resets the dirty bookkeeping so the
// two flush paths stay interchangeable.
func (s *Subsystem) FlushAllDeferred() int {
	cnt := 0
	for _, n := range s.nics {
		cnt += n.FlushDeferred()
	}
	for i := range s.dirtyNICs {
		s.dirtyNICs[i] = nil
	}
	s.dirtyNICs = s.dirtyNICs[:0]
	return cnt
}

// receive is the packet arrival on the destination machine: an rx
// interrupt on the current processor's stack, with delivery deferred to
// the io_done thread (which will usually hand its stack straight to the
// netmsg thread).
func (n *NIC) receive(pkt *Packet) {
	if n.down {
		n.RxWhileDown++
		return
	}
	if n.rxIntr == nil {
		n.rxIntr = n.rxInterrupt
		n.rxIntrLabel = n.Name + " rx"
	}
	n.rxPkt = pkt
	n.Sub.K.TakeInterrupt(n.rxIntrLabel, n.rxIntr)
}

// rxInterrupt is the rx interrupt handler: acknowledge the controller,
// take the packet receive left in rxPkt, and post it to io_done in a
// recycled rx completion.
func (n *NIC) rxInterrupt(e *core.Env) {
	pkt := n.rxPkt
	n.rxPkt = nil
	s := n.Sub
	e.Charge(nicRxHandlerCost)
	s.noteHandlerWork(nicRxHandlerCost)
	n.Interrupts++
	n.RxPackets++
	if n.handler == nil {
		return // no netmsg thread: drop
	}
	s.PostCompletion(s.rxCompletion(n.handler, pkt))
}

// Netmsg is the in-kernel network message server: a per-machine internal
// kernel thread that forwards local sends to remote ports over the NIC
// and delivers arriving packets into local ipc ports.
type Netmsg struct {
	Sub *Subsystem
	X   *ipc.IPC
	NIC *NIC

	// Thread is the forwarding thread; cont is its work-loop continuation
	// ("netmsg_continue").
	Thread *core.Thread
	cont   *core.Continuation

	// exported maps wire names to the local ports that remote machines
	// may send to by name: the named services.
	exported map[string]*ipc.Port

	// routes holds the local ports that travelled over this link as a
	// request's reply port, indexed by their reply route: the port's
	// ipc ID, which is dense and never 0 on its machine, so a port needs
	// no name or map entry to be routed to.
	routes []*ipc.Port

	// proxies are local stand-ins for the peer's named ports, and
	// replyProxies for its reply routes, indexed by route: sending to
	// one transmits a packet. Every reply proxy shares one sink,
	// replySinkFn (replySink, bound once), which reads the route from
	// the port.
	proxies      map[string]*ipc.Port
	replyProxies []*ipc.Port
	replySinkFn  func(e *core.Env, msg *ipc.Message, opts ipc.MsgOptions)

	inbox fifo[*Packet]

	// Reliable enables the seq/ack protocol: every forwarded data packet
	// carries a sequence number, is retransmitted until acknowledged, and
	// arriving duplicates are suppressed — so cross-machine RPC completes
	// under injected packet loss. Enabled on both machines of a pair.
	Reliable bool

	// RexmitTimeout is the first retransmit interval (doubling per
	// attempt); RexmitMax bounds the attempts before the packet is
	// declared lost.
	RexmitTimeout machine.Duration
	RexmitMax     int

	seq     uint64                 // last data sequence number assigned
	unacked map[uint64]*unackedPkt // awaiting acknowledgement, by seq
	seen    map[uint64]bool        // peer data seqs already delivered
	outbox  fifo[*Packet]          // retransmissions queued by timers

	// Membership state (crash recovery). Inc is this machine's boot
	// incarnation, stamped into every transmitted packet; peerInc is the
	// highest incarnation heard from the peer. lastHeard is updated by
	// every stamped arrival — ordinary traffic doubles as a piggybacked
	// heartbeat — and PeerAlive declares the peer dead lazily when the
	// silence exceeds DeadAfter.
	Inc          uint32
	peerInc      uint32
	lastHeard    machine.Time
	declaredDead bool

	// DeadAfter is the silence deadline after which PeerAlive presumes
	// the peer dead (DefaultDeadAfter if left zero by hand-construction).
	DeadAfter machine.Duration

	// Counters.
	Forwarded      uint64 // local sends put on the wire
	Delivered      uint64 // arriving packets delivered to local ports
	Dropped        uint64 // arriving packets with no registered port
	InboxHighWater int
	Retransmits    uint64 // data packets sent again after an ack timeout
	AcksTx         uint64 // acknowledgements transmitted
	AcksRx         uint64 // acknowledgements received
	DupsDropped    uint64 // duplicate data packets suppressed
	Lost           uint64 // packets abandoned after RexmitMax attempts
	StaleDropped   uint64 // arrivals discarded by the incarnation check
	HeartbeatsTx   uint64 // explicit announcements put on the wire
	HeartbeatsRx   uint64 // explicit announcements consumed
	DeathsDetected uint64 // times the peer was declared dead
	Recoveries     uint64 // times a dead peer was heard from again
}

// unackedPkt tracks one transmitted-but-unacknowledged data packet.
type unackedPkt struct {
	pkt      *Packet
	timer    *machine.Event
	attempts int
}

// DefaultRexmitTimeout is the initial ack wait: generously past one
// round trip at the default wire latency.
const DefaultRexmitTimeout = machine.Duration(5 * 1000 * 1000) // 5 ms

// DefaultRexmitMax bounds retransmission attempts per packet.
const DefaultRexmitMax = 8

// DefaultDeadAfter is the membership silence deadline: four retransmit
// intervals without hearing from the peer and it is presumed dead.
const DefaultDeadAfter = 4 * DefaultRexmitTimeout

// NewNetmsg creates the netmsg thread for a machine and binds it to the
// NIC (created blocked; packet arrivals wake it through the io_done
// thread, most often by stack handoff).
func NewNetmsg(s *Subsystem, x *ipc.IPC, nic *NIC) *Netmsg {
	n := &Netmsg{
		Sub:      s,
		X:        x,
		NIC:      nic,
		exported: make(map[string]*ipc.Port),
		proxies:  make(map[string]*ipc.Port),
	}
	n.replySinkFn = n.replySink
	n.RexmitTimeout = DefaultRexmitTimeout
	n.RexmitMax = DefaultRexmitMax
	n.DeadAfter = DefaultDeadAfter
	n.Inc = 1
	n.peerInc = 1
	n.lastHeard = s.K.Clock.Now()
	n.unacked = make(map[uint64]*unackedPkt)
	n.seen = make(map[uint64]bool)
	n.cont = core.NewContinuation("netmsg_continue", n.loop)
	name := "netmsg"
	if nic.index > 0 {
		name = fmt.Sprintf("netmsg%d", nic.index)
	}
	n.Thread = s.K.NewThread(core.ThreadSpec{
		Name:     name,
		SpaceID:  0,
		Internal: true,
		Priority: 29,
		Start:    n.cont,
	})
	nic.handler = n.takePacket
	return n
}

// Cont returns the netmsg thread's work-loop continuation, for tests.
func (n *Netmsg) Cont() *core.Continuation { return n.cont }

// Export registers a local port under a wire name so remote machines can
// send to it.
func (n *Netmsg) Export(name string, p *ipc.Port) {
	n.exported[name] = p
}

// replyProxyName names every reply proxy: a route is an integer, so the
// proxies share one name instead of each building its own.
const replyProxyName = "proxy:reply"

// exportRoute returns the reply route of a local port, registering the
// port under it on this link: the route a reply from the peer addresses.
func (n *Netmsg) exportRoute(p *ipc.Port) uint32 {
	n.routes = growTo(n.routes, p.ID)
	n.routes[p.ID] = p
	return uint32(p.ID)
}

// growTo returns s extended with nils so that index i is valid.
func growTo(s []*ipc.Port, i int) []*ipc.Port {
	if i < len(s) {
		return s
	}
	return append(s, make([]*ipc.Port, i+1-len(s))...)
}

// ProxyFor returns a local port standing in for the named port on the
// remote machine. Sending to it runs the netmsg forward path in the
// sender's kernel context: the message becomes a packet, and the sender
// proceeds directly into its receive phase (no local receiver, no queue).
func (n *Netmsg) ProxyFor(remote string) *ipc.Port {
	p := n.proxies[remote]
	if p == nil {
		p = n.X.NewPort("proxy:" + remote)
		p.KernelSink = func(e *core.Env, msg *ipc.Message, opts ipc.MsgOptions) {
			n.forward(e, remote, 0, msg, opts)
		}
		n.proxies[remote] = p
	}
	return p
}

// replyProxy returns the local port standing in for the peer's reply
// route: the reply port of a request that arrived naming it.
func (n *Netmsg) replyProxy(route uint32) *ipc.Port {
	n.replyProxies = growTo(n.replyProxies, int(route))
	p := n.replyProxies[route]
	if p == nil {
		p = n.X.NewPort(replyProxyName)
		p.Route = route
		p.KernelSink = n.replySinkFn
		n.replyProxies[route] = p
	}
	return p
}

// replySink is every reply proxy's kernel sink: forward the reply to the
// route the proxy stands for. Transfers control.
func (n *Netmsg) replySink(e *core.Env, msg *ipc.Message, opts ipc.MsgOptions) {
	n.forward(e, "", opts.SendTo.Route, msg, opts)
}

// forward processes a send to a proxy port in the sender's kernel
// context: transmit the packet to the peer's named port dst or, when
// route is nonzero, to its reply route, then continue the sender's
// mach_msg. Transfers control.
func (n *Netmsg) forward(e *core.Env, dst string, route uint32, msg *ipc.Message, opts ipc.MsgOptions) {
	var reply uint32
	if msg.Reply != nil {
		reply = n.exportRoute(msg.Reply)
	}
	n.Forwarded++
	pkt := &Packet{
		DstPort:    dst,
		DstRoute:   route,
		ReplyRoute: reply,
		OpID:       msg.OpID,
		Size:       msg.Size,
		Body:       msg.Body,
		SrcInc:     n.Inc,
		DstInc:     n.peerInc,
		Trace:      msg.Trace,
		SentAt:     n.Sub.K.Clock.Now(),
		Deadline:   msg.Deadline,
	}
	// DstInc is stamped once, here: if the peer crashes and reboots while
	// this packet is retransmitting, every retransmission still targets
	// the dead incarnation and the new one discards them — a request from
	// before the crash is never half-delivered into the rebooted machine.
	if n.Reliable {
		n.seq++
		pkt.Seq = n.seq
		n.track(pkt)
	}
	n.NIC.Transmit(e, pkt)
	// The message is fully serialized into the packet; recycle its buffer.
	n.X.FreeMessage(msg)
	if opts.ReceiveFrom != nil {
		n.X.ReceiveTimeout(e, opts.ReceiveFrom, opts.MaxSize, opts.RcvTimeout)
		return
	}
	n.Sub.K.ThreadSyscallReturn(e, ipc.MsgSuccess)
}

// EnableReliable turns on the seq/ack protocol; enable it on both
// machines of a connected pair.
func (n *Netmsg) EnableReliable() { n.Reliable = true }

// UnackedLen reports data packets still awaiting acknowledgement.
func (n *Netmsg) UnackedLen() int { return len(n.unacked) }

// SetIncarnation stamps the machine's boot incarnation into this link's
// outbound packets; the warm-reboot path calls it before announcing.
func (n *Netmsg) SetIncarnation(inc uint32) { n.Inc = inc }

// PeerAlive reports whether the peer machine is presumed up: alive until
// the link has been silent past DeadAfter, dead from then until the peer
// is heard from again. The check is lazy — ordinary traffic carries the
// piggybacked heartbeats, so no timer fires on a quiescent machine and
// determinism across drivers is free.
func (n *Netmsg) PeerAlive() bool {
	if n.declaredDead {
		return false
	}
	if n.Sub.K.Clock.Now()-n.lastHeard > n.deadAfter() {
		n.declaredDead = true
		n.DeathsDetected++
		if r := n.Sub.K.Obs; r != nil {
			r.Emit(obs.PeerDeath, 0, "", n.NIC.Name)
		}
		return false
	}
	return true
}

func (n *Netmsg) deadAfter() machine.Duration {
	if n.DeadAfter != 0 {
		return n.DeadAfter
	}
	return DefaultDeadAfter
}

// AnnounceIncarnation queues an explicit heartbeat announcing this
// machine's incarnation — the warm-reboot path's "I am back" burst. The
// announcement rides the reliability protocol when enabled, so a single
// injected drop cannot hide a reboot from the peer. Transmission happens
// in the netmsg thread's context (timers and boot code have no kernel
// Env to charge the tx cost against).
func (n *Netmsg) AnnounceIncarnation() {
	pkt := &Packet{Heartbeat: true, Size: ackBytes, SrcInc: n.Inc}
	if n.Reliable {
		n.seq++
		pkt.Seq = n.seq
		n.track(pkt)
	}
	n.outbox.push(pkt)
	if n.Thread.State() == core.StateWaiting {
		n.Sub.K.Setrun(n.Thread)
	}
}

// noteIncarnation is the membership bookkeeping run on every arriving
// packet, before any protocol processing. It reports whether the packet
// must be discarded as stale: stamped by a peer incarnation already
// superseded, or aimed at a previous incarnation of this machine. A
// zero stamp means the packet predates incarnation stamping (or was
// hand-built by a test) and is always accepted.
func (n *Netmsg) noteIncarnation(pkt *Packet) (stale bool) {
	n.lastHeard = n.Sub.K.Clock.Now()
	if n.declaredDead {
		n.declaredDead = false
		n.Recoveries++
		if r := n.Sub.K.Obs; r != nil {
			r.EmitArg(obs.PeerDeath, 0, "", n.NIC.Name, 1)
		}
	}
	if pkt.SrcInc > n.peerInc {
		// The peer rebooted: its new incarnation restarts sequence
		// numbering, so the dedup state of the dead incarnation must go
		// with it. Unacked packets stamped for the dead incarnation can
		// never be acknowledged — the new incarnation stale-drops them —
		// so they are declared lost now rather than after the full
		// retransmit backoff (cancel order does not matter: the event
		// heap breaks ties by sequence number, not layout).
		n.peerInc = pkt.SrcInc
		for s := range n.seen {
			delete(n.seen, s)
		}
		for seq, u := range n.unacked {
			if u.pkt.DstInc != 0 && u.pkt.DstInc < n.peerInc {
				n.Sub.K.Clock.Cancel(u.timer)
				delete(n.unacked, seq)
				n.Lost++
			}
		}
	}
	if pkt.SrcInc != 0 && pkt.SrcInc < n.peerInc {
		n.StaleDropped++
		return true
	}
	if pkt.DstInc != 0 && pkt.DstInc != n.Inc {
		n.StaleDropped++
		return true
	}
	return false
}

// track registers a data packet as awaiting acknowledgement and arms its
// retransmit timer.
func (n *Netmsg) track(pkt *Packet) {
	u := &unackedPkt{pkt: pkt}
	n.unacked[pkt.Seq] = u
	n.armRexmit(u)
}

// armRexmit schedules the next ack timeout for an unacknowledged packet,
// doubling the wait per attempt. The timer cannot transmit itself —
// clock events run in dispatcher context with no kernel Env to charge
// the tx cost against — so it queues the packet on the outbox and wakes
// the netmsg thread, which retransmits in thread context.
func (n *Netmsg) armRexmit(u *unackedPkt) {
	d := n.RexmitTimeout << uint(u.attempts)
	u.timer = n.Sub.K.Clock.After(d, "netmsg-rexmit", func() {
		if n.unacked[u.pkt.Seq] != u {
			return
		}
		u.attempts++
		if u.attempts > n.RexmitMax {
			delete(n.unacked, u.pkt.Seq)
			n.Lost++
			return
		}
		n.outbox.push(u.pkt)
		if n.Thread.State() == core.StateWaiting {
			n.Sub.K.Setrun(n.Thread)
		}
		n.armRexmit(u)
	})
}

// takePacket runs in io_done context when an rx completion is processed:
// queue the packet and wake the netmsg thread. When io_done then blocks,
// the continuation kernel hands its stack straight to the netmsg thread,
// which runs loop as its continuation.
func (n *Netmsg) takePacket(e *core.Env, pkt *Packet) {
	n.inbox.push(pkt)
	if n.inbox.size() > n.InboxHighWater {
		n.InboxHighWater = n.inbox.size()
	}
	if n.Thread.State() == core.StateWaiting {
		n.Sub.K.Setrun(n.Thread)
	}
}

// loop is the netmsg thread's work loop, §2.2 style: deliver every queued
// packet, then block with this same continuation. Transfers control.
func (n *Netmsg) loop(e *core.Env) {
	k := n.Sub.K
	for n.inbox.size() > 0 || n.outbox.size() > 0 {
		// Retransmissions and heartbeats queued by timers and the reboot
		// path go out first.
		for n.outbox.size() > 0 {
			pkt := n.outbox.pop()
			if pkt.Heartbeat {
				n.HeartbeatsTx++
				if r := n.Sub.K.Obs; r != nil {
					t := e.Cur()
					r.EmitArg(obs.Heartbeat, t.ID, t.Name, n.NIC.Name, int(n.Inc))
				}
			} else {
				n.Retransmits++
				if r := n.Sub.K.Obs; r != nil && pkt.Trace.Sampled() {
					// The backoff window up to this retransmission is
					// recovery overhead, annotated on the sender (the
					// shared packet is not touched).
					r.RecordSpan(obs.Span{
						Trace: pkt.Trace.Trace, ID: r.NextSpanID(pkt.Trace.Trace),
						Parent: pkt.Trace.Span, Name: "net.rexmit",
						Seg: obs.SegRetry, TID: e.Cur().ID, Detail: n.NIC.Name,
						Start: pkt.SentAt, End: n.Sub.K.Clock.Now(),
					})
				}
			}
			n.NIC.Transmit(e, pkt)
		}
		if n.inbox.size() == 0 {
			break
		}
		pkt := n.inbox.pop()
		e.Charge(netmsgDemuxCost)
		n.deliver(e, pkt)
		if e.Transferred() {
			return
		}
	}
	t := e.Cur()
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "netmsg: idle"
	k.Block(e, stats.BlockInternal, n.cont, nil, 256, "netmsg-wait")
}

// deliver hands an arriving packet to its local port. When a receiver is
// already waiting with mach_msg_continue, the netmsg thread hands its
// stack straight over and recognition completes the receive inline — the
// §2.3 fast path driven by an internal thread instead of a local sender.
// Transfers control on the handoff path only; the caller checks
// e.Transferred.
func (n *Netmsg) deliver(e *core.Env, pkt *Packet) {
	k := n.Sub.K
	// Membership first: a stale packet — one that outlived a crash on
	// either end — is discarded before the protocol sees it, and in
	// particular is never acknowledged (an ack would quiet the sender's
	// retransmit timer for a request that was never delivered).
	if n.noteIncarnation(pkt) {
		return
	}
	if pkt.Ack {
		if u := n.unacked[pkt.Seq]; u != nil {
			k.Clock.Cancel(u.timer)
			delete(n.unacked, pkt.Seq)
		}
		n.AcksRx++
		return
	}
	if n.Reliable && pkt.Seq != 0 {
		// Acknowledge before anything else: the delivery below may end in
		// a stack handoff to the receiver, and a duplicate must
		// be re-acked (its first ack may have been the packet that was
		// lost). The ack's DstInc is the arriving packet's incarnation, so
		// an ack delayed across the sender's reboot cannot quiet a fresh
		// transmission that happens to reuse the sequence number.
		n.AcksTx++
		n.NIC.Transmit(e, &Packet{Ack: true, Seq: pkt.Seq, Size: ackBytes,
			SrcInc: n.Inc, DstInc: pkt.SrcInc})
		if n.seen[pkt.Seq] {
			n.DupsDropped++
			return
		}
		n.seen[pkt.Seq] = true
	}
	if pkt.Heartbeat {
		n.HeartbeatsRx++
		return
	}
	var port *ipc.Port
	if pkt.DstRoute != 0 {
		if int(pkt.DstRoute) < len(n.routes) {
			port = n.routes[pkt.DstRoute]
		}
	} else {
		port = n.exported[pkt.DstPort]
	}
	if port == nil || port.Dead() {
		n.Dropped++
		return
	}
	var reply *ipc.Port
	if pkt.ReplyRoute != 0 {
		reply = n.replyProxy(pkt.ReplyRoute)
	}
	msg := n.X.NewMessage(pkt.OpID, pkt.Size, pkt.Body, reply)
	msg.Trace = pkt.Trace
	msg.Deadline = pkt.Deadline
	if r := k.Obs; r != nil && pkt.Trace.Sampled() {
		// The flight, recorded retroactively on arrival: transmit time
		// traveled in the framing, both clocks share the cluster
		// timeline, so the receiver knows the whole interval.
		r.RecordSpan(obs.Span{
			Trace: pkt.Trace.Trace, ID: r.NextSpanID(pkt.Trace.Trace),
			Parent: pkt.Trace.Span, Name: "net.wire",
			Seg: obs.SegWire, TID: e.Cur().ID, Detail: n.NIC.Name,
			Start: pkt.SentAt, End: k.Clock.Now(),
		})
	}
	n.Delivered++
	recv := n.X.PopWaiter(e, port)
	if recv != nil && k.CanHandoffTo(recv) {
		t := e.Cur()
		if n.inbox.size() > 0 || n.outbox.size() > 0 {
			e.K.SetState(t, core.StateRunnable)
		} else {
			e.K.SetState(t, core.StateWaiting)
			t.WaitLabel = "netmsg: idle"
		}
		n.X.HandOff(e, stats.BlockInternal, n.cont, recv, msg)
		return
	}
	n.X.Enqueue(e, port, msg)
	if recv != nil {
		k.Setrun(recv)
	}
}
