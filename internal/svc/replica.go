package svc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
)

// PortName is the wire name every replica exports its service port
// under, on every link.
const PortName = "kv"

// DefaultRenewEvery is the lease renewal period and the replica's idle
// tick: comfortably under the membership deadline (so a live leader is
// never spuriously deposed) and above the wire RTT (so renewals are
// cheap).
const DefaultRenewEvery = machine.Duration(4 * 1000 * 1000) // 4 ms

// portQueueLimit sizes the replica and cache service ports' message
// queues.
const portQueueLimit = 64

// drainTimeout is the receive bound used while more outbound messages
// are queued: long enough to take any already-delivered message, short
// enough that a burst (snapshot reply plus acks) drains promptly.
const drainTimeout = machine.Duration(50 * 1000) // 50 us

// ReplicaStats counts service-level events across a replica's whole
// lifetime. The struct is referenced from ReplicaConfig, so like the
// lease table it survives crashes — reports span incarnations.
type ReplicaStats struct {
	Elections         uint64 // self-promotions after the leader went silent
	FencingRejections uint64 // stale-epoch requests refused
	Deposed           uint64 // times this replica learned it was fenced
	SoloAcks          uint64 // writes acked without a live backup
	Syncs             uint64 // rejoin state transfers installed
	RejoinsServed     uint64 // rejoin probes answered
	Merged            uint64 // entries installed from rejoin-probe snapshots
	Stalled           uint64 // client ops dropped while deposed-dirty
	Gets              uint64 // client reads served as leader
	Puts              uint64 // client writes applied as leader
	Replicated        uint64 // follower writes applied from the leader
}

// AckKey identifies one (group, epoch) pair under which client writes
// were acknowledged — the unit of the split-brain assertion: two ranks
// both acking writes under the same key is a fencing failure. It is the
// checker's own type so the post-run intersection needs no conversion.
type AckKey = check.AckKey

// ReplicaConfig is the durable half of a replica: everything here
// survives a machine crash (it models fsynced metadata plus static
// configuration), while the Replica object itself is per-incarnation
// volatile state rebuilt by InstallReplica on every warm reboot.
type ReplicaConfig struct {
	// Rank is this replica's identity (0 or 1); PeerRank the other.
	Rank, PeerRank int
	Map            ShardMap
	// Leases is the durable lease table; shared with nothing — each
	// replica has its own copy, reconciled through the wire protocol.
	Leases *LeaseTable
	// PeerLink indexes the machine's link to the other replica.
	PeerLink int
	// Clients is the number of client threads that will each report done.
	Clients int
	// RenewEvery is the lease renewal and tick period.
	RenewEvery machine.Duration
	// IdleExit bounds how long the replica keeps ticking with no real
	// traffic before giving up and quiescing — the escape hatch that
	// lets a cluster whose clients died without reboot still reach the
	// drivers' quiescence condition.
	IdleExit machine.Duration
	Stats    *ReplicaStats

	// Overload arms the replica-tier overload controls when Enabled:
	// the deadline check and the CoDel admission controller run on
	// every dequeued client op, shedding dead or inadmissible work with
	// a cheap typed reply before any apply or replication. Ov is the
	// shedding scoreboard (durable, like Stats). Replication traffic is
	// never shed: an accepted write always finishes replicating.
	Overload overload.Policy
	Ov       *overload.Stats

	// BreakOverload deliberately services an already-expired write
	// (applying it to the store) while still telling the client it was
	// shed — the negative control proving the linearizability checker
	// catches a tier that applies work it claimed to drop. Never set
	// outside tests and machsim -breakoverload.
	BreakOverload bool

	// AckLog records every (group, epoch) this rank acknowledged a client
	// write under. Durable (it models the fsynced commit record), so the
	// split-brain checker can intersect both ranks' logs after the run:
	// a pair present in both is two primaries acking under one lease.
	AckLog map[AckKey]uint64

	// Break deliberately disables the partition-heal safety protocol —
	// the rejoin snapshot merge and the deposed-dirty client stall — so
	// acked writes can be lost across a heal. It exists to prove the
	// linearizability checker can fail: a build with Break set must be
	// flagged. Never set outside tests and machsim -breakkv.
	Break bool

	ledger doneLedger
	boots  int
}

// DefaultIdleExit is the no-traffic give-up horizon: far beyond any gap
// a crash/reboot/rejoin sequence produces in a healthy run, so it only
// fires when the workload's clients are truly gone.
const DefaultIdleExit = machine.Duration(250 * 1000 * 1000) // 250 ms

// pendingRep is one client write applied locally and awaiting the
// backup's acknowledgement before the client is answered.
type pendingRep struct {
	group int
	seq   uint64
	epoch uint64 // lease epoch at accept time, for the ack log
	opid  uint32
	reply *ipc.Port
	at    machine.Time
	// trace is the client operation's causal context. Carried here
	// explicitly: the replica thread serves other messages between
	// accepting the write and hearing the ack, so the thread-level
	// context is long gone by then.
	trace obs.TraceContext
}

// Replica is the per-incarnation server program: one thread per server
// machine, receiving every protocol message on the exported service port
// with a renewal-period timeout, so elections, renewals and rejoin
// probes all ride the same continuation-blocked receive loop.
type Replica struct {
	sys  *kern.System
	cfg  *ReplicaConfig
	port *ipc.Port

	store      []map[uint64]Entry // per shard, version-checked apply
	seq        []uint64           // per group replication high-water
	pending    []pendingRep
	out        []outbound
	recovering bool
	// deposedDirty marks the window between learning I was fenced and the
	// peer's MsgRejoinOK confirming my solo-acked writes were merged. While
	// set, client ops are silently dropped instead of redirected: a client
	// sent to the new leader before the merge lands could read a value
	// older than one I already acknowledged.
	deposedDirty bool
	lastRenew    machine.Time
	lastRejoin   machine.Time
	lastActivity machine.Time

	// codel is the admission controller over the service port's queue
	// sojourn. Per-incarnation volatile state: a rebooted replica
	// starts with an empty queue, so it starts with a fresh controller.
	codel overload.CoDel

	sendAct core.Action
	recvAct core.Action
}

// InstallReplica boots the replica service on a machine: a fresh
// volatile Replica over the durable cfg, its port exported on every
// link. Registered through kern.RegisterService it runs again on each
// warm reboot; from the second boot on the replica starts in recovery,
// probing its peer before trusting its own durable lease view.
func InstallReplica(s *kern.System, cfg *ReplicaConfig) {
	cfg.boots++
	if cfg.Stats == nil {
		cfg.Stats = &ReplicaStats{}
	}
	if cfg.Leases == nil {
		cfg.Leases = NewLeaseTable(cfg.Map)
	}
	if cfg.AckLog == nil {
		cfg.AckLog = make(map[AckKey]uint64)
	}
	if cfg.Ov == nil {
		cfg.Ov = &overload.Stats{}
	}
	cfg.ledger.init(cfg.Clients)
	r := &Replica{
		sys:          s,
		cfg:          cfg,
		store:        make([]map[uint64]Entry, cfg.Map.Shards),
		seq:          make([]uint64, cfg.Map.Groups),
		recovering:   cfg.boots > 1,
		lastActivity: s.K.Clock.Now(),
		codel:        overload.CoDel{Target: cfg.Overload.Target, Interval: cfg.Overload.Interval},
	}
	for i := range r.store {
		r.store[i] = make(map[uint64]Entry)
	}
	task := s.NewTask("kv-replica")
	r.port = s.IPC.NewPort(PortName)
	r.port.QueueLimit = portQueueLimit
	for _, n := range s.Links {
		n.Export(PortName, r.port)
	}
	s.Start(task.NewThread("replica", r, 20))
}

// peerLink is the replication link's membership view.
func (r *Replica) peerLink() lnk { return r.sys.Links[r.cfg.PeerLink] }

// lnk is the slice of the netmsg API the replica consults.
type lnk interface {
	PeerAlive() bool
	ProxyFor(string) *ipc.Port
}

// reply queues the answer to request opid on port to (see answer).
func (r *Replica) reply(to *ipc.Port, opid uint32, w *Wire, ctx obs.TraceContext, at machine.Time) {
	r.out = append(r.out, answer(to, opid, w, ctx, at))
}

// pushPeer queues a message to the other replica, traced like an
// answer: replicates and their acks carry the client op's context,
// control traffic the zero one. Liveness-bearing
// control traffic (renewals and rejoin probes) jumps to the front of
// the out queue: the peer's membership layer reads any arrival as a
// heartbeat, so a renewal parked behind a long data backlog on a slow
// machine would let the silence deadline expire and trigger a false
// election. Reordering control ahead of data is safe — renewals carry
// only the current lease, rejoins only the durable view, and data
// messages keep FIFO order among themselves.
func (r *Replica) pushPeer(w *Wire, ctx obs.TraceContext, at machine.Time) {
	w.From = r.cfg.Rank
	o := outbound{to: r.peerLink().ProxyFor(PortName), w: w, trace: ctx, at: at}
	if w.Kind == MsgRenew || w.Kind == MsgRejoin {
		r.out = append(r.out, outbound{})
		copy(r.out[1:], r.out)
		r.out[0] = o
		return
	}
	r.out = append(r.out, o)
}

// wireBytes prices a Wire for the simulated copy/transfer costs.
func wireBytes(w *Wire) int {
	n := 160
	if rj := w.Rejoin; rj != nil {
		n += 8*(len(rj.Epochs)+len(rj.Seqs)+len(rj.Leaders)) +
			16*len(rj.Grants) + 24*len(rj.Snap)
	}
	if n < ipc.HeaderBytes {
		n = ipc.HeaderBytes
	}
	return n
}

func (r *Replica) Next(e *core.Env, t *core.Thread) core.Action {
	if r.recvAct.Invoke == nil {
		r.recvAct = core.Syscall("mach_msg(svc-recv)", func(e *core.Env) {
			r.sys.IPC.MachMsg(e, ipc.MsgOptions{
				ReceiveFrom: r.port, RcvTimeout: r.cfg.RenewEvery,
			})
		})
		r.sendAct = core.Syscall("mach_msg(svc-send)", func(e *core.Env) {
			o := r.out[0]
			r.out = r.out[:copy(r.out, r.out[1:])]
			timeout := r.cfg.RenewEvery
			if len(r.out) > 0 {
				timeout = drainTimeout
			}
			send(e, r.sys, o, "kv.serve", r.port, timeout)
		})
	}
	if m := r.sys.IPC.Received(t); m != nil {
		r.handle(t, m)
	}
	r.tick(t)
	if len(r.pending) == 0 && len(r.out) == 0 {
		if r.cfg.ledger.left == 0 {
			// Every client thread reported completion and nothing is owed
			// to anyone: quiesce so the cluster run can end.
			return core.Exit()
		}
		if r.sys.K.Clock.Now()-r.lastActivity >= r.cfg.IdleExit {
			// No real traffic for the whole idle horizon: the remaining
			// clients are gone for good. Give up rather than tick forever
			// — the drivers' quiescence condition needs every thread to
			// stop eventually.
			return core.Exit()
		}
	}
	if len(r.out) > 0 {
		return r.sendAct
	}
	return r.recvAct
}

// tick runs the clock-driven duties: elections, lease renewals, solo
// acknowledgements, and rejoin probing. All timing reads the simulated
// clock, so sequential and parallel drivers agree exactly.
func (r *Replica) tick(t *core.Thread) {
	now := r.sys.K.Clock.Now()
	leases, stats := r.cfg.Leases, r.cfg.Stats
	peerUp := r.peerLink().PeerAlive()

	if !peerUp && !r.recovering && r.cfg.ledger.left > 0 {
		// Election: promote myself over every group the silent peer led.
		// The membership layer's deadline (DeadAfter of silence) is the
		// lease expiry; the epoch bump is the new fencing token.
		for g := range leases.L {
			if leases.L[g].Leader != r.cfg.PeerRank {
				continue
			}
			ep := leases.Promote(g, r.cfg.Rank)
			stats.Elections++
			if rec := r.sys.K.Obs; rec != nil {
				rec.EmitArg(obs.Election, t.ID,
					fmt.Sprintf("group %d", g), int(ep))
			}
		}
	}
	if !peerUp && len(r.pending) > 0 {
		// Writes in flight to the dead backup will never be acked: answer
		// their clients directly. New writes solo-ack at accept time until
		// the peer rejoins.
		r.ackPendingSolo(now)
	}

	if !r.recovering && peerUp && r.cfg.ledger.left > 0 && now-r.lastRenew >= r.cfg.RenewEvery {
		r.lastRenew = now
		for g := range leases.L {
			if leases.L[g].Leader != r.cfg.Rank {
				continue
			}
			r.pushPeer(&Wire{Kind: MsgRenew, Group: g,
				Epoch: leases.L[g].Epoch, Leader: r.cfg.Rank}, obs.TraceContext{}, 0)
		}
	}

	// Rejoin probes flow even while the peer is presumed dead: after a
	// partition heals with every retransmit exhausted, nothing else moves
	// on the replica link, so the probe itself must be the traffic whose
	// arrival flips the peer's membership view back to alive. The probe
	// carries this side's store so the peer can merge writes solo-acked
	// under the old lease (empty on a fresh incarnation — crash recovery
	// keeps its pure snapshot-pull shape).
	if r.recovering && (r.lastRejoin == 0 || now-r.lastRejoin >= 2*r.cfg.RenewEvery) {
		r.lastRejoin = now
		leaders := make([]int, len(leases.L))
		for g := range leases.L {
			leaders[g] = leases.L[g].Leader
		}
		r.pushPeer(&Wire{Kind: MsgRejoin, Rejoin: &Rejoin{Epochs: leases.Epochs(), Leaders: leaders,
			Snap: r.snapshot(), Seqs: append([]uint64(nil), r.seq...)}}, obs.TraceContext{}, 0)
	}
}

// recordAck notes a client-write acknowledgement under (group, epoch) in
// the durable ack log — the split-brain checker's evidence.
func (r *Replica) recordAck(g int, epoch uint64) {
	r.cfg.AckLog[AckKey{Group: g, Epoch: epoch}]++
}

// bouncePending answers every pending write of group g (of every group
// when g < 0) with a redirect to leader — used when I was fenced, and
// when leadership of g was adopted away without an explicit fencing
// reject (a renewal or rejoin grant taught us a newer lease): the
// backup's MsgRepOK will never come and the clients would hang forever.
func (r *Replica) bouncePending(g, leader int) {
	kept := r.pending[:0]
	for _, p := range r.pending {
		if g >= 0 && p.group != g {
			kept = append(kept, p)
			continue
		}
		r.reply(p.reply, p.opid, &Wire{Kind: MsgReply, NotLeader: true, Leader: leader},
			obs.TraceContext{}, 0)
	}
	r.pending = kept
}

// ackPendingSolo answers every waiting client directly — the backup is
// gone, so sync replication degrades to solo writes rather than hanging
// the clients.
func (r *Replica) ackPendingSolo(now machine.Time) {
	for _, p := range r.pending {
		r.cfg.Stats.SoloAcks++
		r.recordAck(p.group, p.epoch)
		r.observeRep(now, p.at)
		r.reply(p.reply, p.opid, &Wire{Kind: MsgReply, Found: true}, obs.TraceContext{}, 0)
	}
	r.pending = r.pending[:0]
}

// observeRep records one write's accept-to-ack latency in the
// "kv.replicate" service histogram.
func (r *Replica) observeRep(now, at machine.Time) {
	if rec := r.sys.K.Obs; rec != nil {
		rec.Service("kv.replicate").Observe(uint64(now - at))
	}
}

// handle dispatches one received protocol message.
func (r *Replica) handle(t *core.Thread, m *ipc.Message) {
	w, ok := m.Body.(*Wire)
	reply := m.Reply
	ctx := m.Trace
	deadline, enq := m.Deadline, m.EnqueuedAt
	r.sys.IPC.FreeMessage(m)
	if !ok {
		return
	}
	leases, stats := r.cfg.Leases, r.cfg.Stats
	now := r.sys.K.Clock.Now()
	if w.Kind != MsgRenew {
		// Renewals flow between two live replicas forever; everything
		// else is evidence the workload is still making progress.
		r.lastActivity = now
	}
	switch w.Kind {
	case MsgClientOp:
		r.clientOp(w, reply, now, deadline, enq, ctx)

	case MsgReplicate:
		g := w.Group
		if leases.Stale(g, w.Epoch) {
			r.refuse(t, g, "replicate", w.Epoch)
			return
		}
		leases.Adopt(g, w.Epoch, w.From)
		r.apply(w.Shard, w.Key, w.Val, Version{Epoch: w.Epoch, Seq: w.Seq})
		if w.Seq > r.seq[g] {
			r.seq[g] = w.Seq
		}
		stats.Replicated++
		r.pushPeer(&Wire{Kind: MsgRepOK, Group: g, Seq: w.Seq}, ctx, now)

	case MsgRepOK:
		for i, p := range r.pending {
			if p.group != w.Group || p.seq != w.Seq {
				continue
			}
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			r.recordAck(p.group, p.epoch)
			r.observeRep(now, p.at)
			// The replication round: accept to backup ack, the same
			// interval the kv.replicate histogram observed.
			serviceSpan(r.sys, p.trace, "kv.replicate", t.ID, p.at)
			r.reply(p.reply, p.opid, &Wire{Kind: MsgReply, Found: true}, p.trace, now)
			break
		}

	case MsgRepReject:
		// I have been fenced: a newer lease exists. Fall in line, bounce
		// my waiting clients to the real leader, and resync. Until the
		// rejoin round-trip confirms my solo-acked writes reached the new
		// leader, client ops stall rather than redirect (deposedDirty).
		stats.Deposed++
		leases.Adopt(w.Group, w.Epoch, w.Leader)
		r.bouncePending(-1, w.Leader)
		r.recovering = true
		if !r.cfg.Break {
			r.deposedDirty = true
		}
		r.lastRejoin = 0

	case MsgRenew:
		g := w.Group
		if leases.Stale(g, w.Epoch) {
			r.refuse(t, g, "renew", w.Epoch)
			return
		}
		leases.Adopt(g, w.Epoch, w.Leader)
		if leases.L[g].Leader != r.cfg.Rank {
			// Leadership moved away without an explicit fencing reject
			// (asymmetric link: my replicates never arrive, the peer's
			// renewals do). Waiting writes would hang forever on a RepOK
			// that cannot come — redirect their clients.
			r.bouncePending(g, leases.L[g].Leader)
		}

	case MsgRejoin:
		rj := w.Rejoin
		grants := DecideRejoin(leases, r.cfg.Rank, w.From, rj.Epochs, rj.Leaders)
		for _, gr := range grants {
			if !gr.Rejected {
				continue
			}
			var presented uint64
			if gr.Group < len(rj.Epochs) {
				presented = rj.Epochs[gr.Group]
			}
			r.fence(t, gr.Group, "rejoin", presented)
		}
		stats.RejoinsServed++
		if !r.cfg.Break {
			// Merge the prober's store: writes it solo-acked under its old
			// lease that I never saw. The version-checked apply keeps my
			// newer writes; Break skips this, which is the deliberate
			// acked-write-loss the linearizability checker must flag.
			r.merge(rj.Seqs, rj.Snap)
			stats.Merged += uint64(len(rj.Snap))
		}
		r.pushPeer(&Wire{Kind: MsgRejoinOK, Rejoin: &Rejoin{Grants: grants,
			Snap: r.snapshot(), Seqs: append([]uint64(nil), r.seq...)}}, obs.TraceContext{}, 0)

	case MsgRejoinOK:
		rj := w.Rejoin
		for _, gr := range rj.Grants {
			leases.Adopt(gr.Group, gr.Epoch, gr.Leader)
			if leases.L[gr.Group].Leader != r.cfg.Rank {
				r.bouncePending(gr.Group, leases.L[gr.Group].Leader)
			}
		}
		if !r.cfg.Break {
			// The leader's store, pulled on rejoin. Break skips this
			// direction too: in a symmetric depose each side's RejoinOK
			// would otherwise carry the other's solo-acked writes and
			// quietly repair the loss the knob exists to demonstrate.
			r.merge(rj.Seqs, rj.Snap)
		}
		if r.recovering {
			r.recovering = false
			stats.Syncs++
		}
		// The peer has merged my snapshot (it answered the probe that
		// carried it): redirecting clients is safe again.
		r.deposedDirty = false

	case MsgDone:
		// From carries the reporting client thread's global index here.
		if ack, ok := r.cfg.ledger.handle(w, reply); ok {
			r.out = append(r.out, ack)
		}
	}
}

// fence counts one fencing rejection: a replicate, renew or rejoin
// (what) presented a stale epoch for group g.
func (r *Replica) fence(t *core.Thread, g int, what string, presented uint64) {
	r.cfg.Stats.FencingRejections++
	if rec := r.sys.K.Obs; rec != nil {
		rec.EmitArg(obs.Fencing, t.ID, fmt.Sprintf("group %d %s", g, what), int(presented))
	}
}

// refuse fences a deposed leader's replicate or renew and teaches the
// sender the current lease.
func (r *Replica) refuse(t *core.Thread, g int, what string, presented uint64) {
	r.fence(t, g, what, presented)
	l := r.cfg.Leases.L[g]
	r.pushPeer(&Wire{Kind: MsgRepReject, Group: g, Epoch: l.Epoch, Leader: l.Leader},
		obs.TraceContext{}, 0)
}

// merge installs a peer's store snapshot through the version-checked
// apply, and raises each group's replication high-water to the peer's.
func (r *Replica) merge(seqs []uint64, snap []Entry) {
	for g, s := range seqs {
		if g < len(r.seq) && s > r.seq[g] {
			r.seq[g] = s
		}
	}
	for _, ent := range snap {
		r.apply(r.cfg.Map.ShardOf(ent.Key), ent.Key, ent.Val, ent.Ver)
	}
}

// clientOp serves one Get/Put as leader, or redirects the client. An
// armed replica first runs the dequeue gate: a shed op gets its typed
// reply and nothing is applied or replicated (replication traffic is
// never shed, so an accepted write always finishes replicating). ctx
// is the request's causal-trace context, threaded through the
// replication round and onto the reply.
func (r *Replica) clientOp(w *Wire, reply *ipc.Port, now, deadline, enq machine.Time, ctx obs.TraceContext) {
	leases, stats := r.cfg.Leases, r.cfg.Stats
	shard := r.cfg.Map.ShardOf(w.Key)
	g := r.cfg.Map.GroupOf(shard)
	if r.cfg.Overload.Enabled {
		if o := shed(&r.codel, r.cfg.Ov, now, deadline, enq); o != OK {
			if o == Expired && r.cfg.BreakOverload && w.Op == OpPut {
				// The deliberate bug: apply the write anyway, then claim it
				// was shed. A later get observes a value whose put the
				// history excludes — the phantom the checker must flag.
				r.seq[g]++
				r.apply(shard, w.Key, w.Val, Version{Epoch: leases.L[g].Epoch, Seq: r.seq[g]})
			}
			if reply != nil {
				r.reply(reply, w.OpID, refusal(MsgReply, o), ctx, now)
			}
			return
		}
	}
	if reply == nil {
		return
	}
	if r.deposedDirty {
		// Freshly fenced with solo-acked writes not yet merged at the new
		// leader: answering — even with a redirect — could send this
		// client to a store missing a write I acknowledged. Drop the op;
		// the client's RPC timeout retries it, and the rejoin round-trip
		// clears the stall within a couple of renewal periods.
		stats.Stalled++
		return
	}
	if r.recovering || leases.L[g].Leader != r.cfg.Rank {
		hint := leases.L[g].Leader
		if r.recovering && hint == r.cfg.Rank {
			// My durable view says me, but I have not re-earned the lease
			// yet; the peer is the better guess while I resync.
			hint = r.cfg.PeerRank
		}
		r.reply(reply, w.OpID, &Wire{Kind: MsgReply, NotLeader: true, Leader: hint}, ctx, now)
		return
	}
	if w.Op == OpGet {
		stats.Gets++
		ent, ok := r.store[shard][w.Key]
		r.reply(reply, w.OpID, &Wire{Kind: MsgReply, Key: w.Key, Val: ent.Val, Found: ok}, ctx, now)
		return
	}
	stats.Puts++
	r.seq[g]++
	ver := Version{Epoch: leases.L[g].Epoch, Seq: r.seq[g]}
	r.apply(shard, w.Key, w.Val, ver)
	if r.peerLink().PeerAlive() {
		r.pushPeer(&Wire{Kind: MsgReplicate, Group: g, Shard: shard,
			Key: w.Key, Val: w.Val, Epoch: ver.Epoch, Seq: ver.Seq}, ctx, now)
		r.pending = append(r.pending, pendingRep{group: g, seq: ver.Seq,
			epoch: ver.Epoch, opid: w.OpID, reply: reply, at: now, trace: ctx})
		return
	}
	stats.SoloAcks++
	r.recordAck(g, ver.Epoch)
	r.observeRep(now, now)
	r.reply(reply, w.OpID, &Wire{Kind: MsgReply, Found: true}, ctx, now)
}

// apply installs a write if its version is newer than what the store
// holds — idempotent and order-independent, which is what replication
// retransmits and snapshot installs require.
func (r *Replica) apply(shard int, key, val uint64, v Version) {
	m := r.store[shard]
	if old, ok := m[key]; ok && !old.Ver.Less(v) {
		return
	}
	m[key] = Entry{Key: key, Val: val, Ver: v}
}

// snapshot renders the whole store as a sorted entry list — sorted so
// the bytes on the wire (and everything downstream) are deterministic.
func (r *Replica) snapshot() []Entry {
	var out []Entry
	for shard := range r.store {
		base := len(out)
		for _, ent := range r.store[shard] {
			out = append(out, ent)
		}
		sub := out[base:]
		slices.SortFunc(sub, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
	}
	return out
}

// Store returns the current value of a key, for tests and debugging.
func (r *Replica) Store(key uint64) (uint64, bool) {
	ent, ok := r.store[r.cfg.Map.ShardOf(key)][key]
	return ent.Val, ok
}
