package svc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
)

// CachePortName is the wire name the cache tier exports.
const CachePortName = "cache"

// CacheStats counts cache-tier events across the machine's lifetime
// (referenced from CacheConfig, so it survives crashes).
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	WriteThroughs uint64
	Evictions     uint64
}

// CacheConfig is the durable configuration of the cache tier: a pool of
// worker threads sharing one exported port and one capacity-bounded
// store, each worker fronting the replicated KV through its own embedded
// one-shot Caller. The cached entries themselves are volatile — a cache
// machine crash empties it, and the misses refill from the KV backend.
type CacheConfig struct {
	Map ShardMap
	// Links maps replica rank -> this machine's link to that replica.
	Links [NumRanks]int
	// Workers is the cache thread-pool size; Capacity the entry bound.
	Workers  int
	Capacity int
	// Frontends is the number of frontend threads that will report done.
	Frontends int
	// Timeout is the workers' KV attempt timeout; IdleExit the
	// no-traffic give-up horizon. Between requests a worker blocks on
	// the port for DefaultRenewEvery. Worker i is client i of the KV
	// done protocol.
	Timeout  machine.Duration
	IdleExit machine.Duration
	Stats    *CacheStats

	// Overload arms the cache-tier overload controls when Enabled: the
	// deadline check and a CoDel admission controller (shared by the
	// worker pool — they share one queue) run on every dequeued
	// request, and the incoming deadline is propagated onto the
	// embedded KV fetch so the backend can shed the same op. Ov is the
	// tier's shedding scoreboard.
	Overload overload.Policy
	Ov       *overload.Stats

	ledger doneLedger
}

// cacheShared is the per-incarnation state the worker pool shares:
// the entry map with its FIFO eviction ring, and the machine-wide
// activity clock that gates the idle exit.
type cacheShared struct {
	entries      map[uint64]uint64
	ring         []uint64
	lastActivity machine.Time

	// codel gates admission over the shared port's queue sojourn; one
	// controller for the pool because the queue is one queue.
	codel overload.CoDel
}

// install puts (or refreshes) one entry, evicting in FIFO insert order
// at capacity. No map iteration — eviction order is the ring's.
func (sh *cacheShared) install(cfg *CacheConfig, key, val uint64) {
	if _, ok := sh.entries[key]; ok {
		sh.entries[key] = val
		return
	}
	if cfg.Capacity > 0 && len(sh.entries) >= cfg.Capacity {
		old := sh.ring[0]
		sh.ring = sh.ring[1:]
		delete(sh.entries, old)
		cfg.Stats.Evictions++
	}
	sh.entries[key] = val
	sh.ring = append(sh.ring, key)
}

// InstallCache boots the cache tier on a machine: the shared port and
// store, plus cfg.Workers worker threads. Registered through
// kern.RegisterService it reruns on warm reboot — the workers come back,
// the cache comes back empty.
func InstallCache(s *kern.System, cfg *CacheConfig) {
	if cfg.Stats == nil {
		cfg.Stats = &CacheStats{}
	}
	if cfg.Ov == nil {
		cfg.Ov = &overload.Stats{}
	}
	cfg.ledger.init(cfg.Frontends)
	sh := &cacheShared{
		entries:      make(map[uint64]uint64),
		lastActivity: s.K.Clock.Now(),
		codel:        overload.CoDel{Target: cfg.Overload.Target, Interval: cfg.Overload.Interval},
	}
	task := s.NewTask("cache")
	port := s.IPC.NewPort(CachePortName)
	port.QueueLimit = portQueueLimit
	for _, n := range s.Links {
		n.Export(CachePortName, port)
	}
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("cache-w%d", i)
		kv := &Caller{
			Sys: s, Name: name, ID: i,
			Map: cfg.Map, Links: cfg.Links, Timeout: cfg.Timeout,
			HistName: "cache.fetch", OneShot: true,
		}
		kv.Reset(s)
		w := &cacheWorker{sys: s, cfg: cfg, sh: sh, port: port, kv: kv}
		s.Start(task.NewThread(name, w, 18))
	}
}

// cacheWorker serves cache requests from the shared port: hits answer
// immediately; misses and write-throughs run one operation against the
// KV backend through the embedded one-shot caller, then reply. Between
// requests the worker blocks on the port with a tick timeout so it
// notices done/idle transitions.
type cacheWorker struct {
	sys  *kern.System
	cfg  *CacheConfig
	sh   *cacheShared
	port *ipc.Port
	kv   *Caller

	cur      *Wire
	curReply *ipc.Port
	curCtx   obs.TraceContext
	curAt    machine.Time
	pend     *outbound
	inKV     bool
	finished bool

	recvAct  core.Action
	replyAct core.Action
}

func (w *cacheWorker) Next(e *core.Env, t *core.Thread) core.Action {
	if w.recvAct.Invoke == nil {
		w.recvAct = core.Syscall("mach_msg(cache-recv)", func(e *core.Env) {
			w.sys.IPC.MachMsg(e, ipc.MsgOptions{
				ReceiveFrom: w.port, RcvTimeout: DefaultRenewEvery,
			})
		})
		w.replyAct = core.Syscall("mach_msg(cache-reply)", func(e *core.Env) {
			p := w.pend
			w.pend = nil
			send(e, w.sys, *p, "cache.serve", w.port, DefaultRenewEvery)
		})
	}
	if w.inKV {
		act, fin := w.kv.Step(e, t)
		if !fin {
			return act
		}
		w.inKV = false
		if w.finished {
			return core.Exit()
		}
		w.finishKV()
	}
	if m := w.sys.IPC.Received(t); m != nil {
		w.handle(m)
		if w.inKV {
			act, _ := w.kv.Step(e, t)
			return act
		}
	}
	if w.pend != nil {
		return w.replyAct
	}
	now := w.sys.K.Clock.Now()
	if w.cfg.ledger.left == 0 {
		// Every frontend is done: report this worker's own completion to
		// the KV replicas, then exit.
		w.finished = true
		w.inKV = true
		w.kv.StartDone()
		act, _ := w.kv.Step(e, t)
		return act
	}
	if now-w.sh.lastActivity >= w.cfg.IdleExit {
		return core.Exit()
	}
	return w.recvAct
}

// handle processes one frontend message.
func (w *cacheWorker) handle(m *ipc.Message) {
	req, ok := m.Body.(*Wire)
	reply := m.Reply
	ctx := m.Trace
	deadline, enq := m.Deadline, m.EnqueuedAt
	w.sys.IPC.FreeMessage(m)
	if !ok {
		return
	}
	now := w.sys.K.Clock.Now()
	w.sh.lastActivity = now
	switch req.Kind {
	case MsgDone:
		if ack, ok := w.cfg.ledger.handle(req, reply); ok {
			w.pend = &ack
		}

	case MsgCacheReq, MsgClientOp:
		if reply == nil {
			return
		}
		if w.cfg.Overload.Enabled {
			// Dead work is shed even when it would hit (the client is
			// long gone), and admission is refused while the shared
			// queue's sojourn stays over target — a cheap typed reply
			// instead of a backend fetch.
			if o := shed(&w.sh.codel, w.cfg.Ov, now, deadline, enq); o != OK {
				w.reply(reply, req.OpID, refusal(MsgCacheReply, o), ctx, now)
				return
			}
		}
		if req.Op == OpGet {
			if val, ok := w.sh.entries[req.Key]; ok {
				w.cfg.Stats.Hits++
				w.reply(reply, req.OpID, &Wire{Kind: MsgCacheReply, Key: req.Key, Val: val, Found: true},
					ctx, now)
				return
			}
			w.cfg.Stats.Misses++
		} else {
			w.cfg.Stats.WriteThroughs++
		}
		w.cur = req
		w.curReply = reply
		w.curCtx = ctx
		w.curAt = now
		w.inKV = true
		// The backend fetch continues the frontend's trace: the embedded
		// caller's operation becomes a child span of this request, and
		// it inherits the request's remaining deadline budget so the KV
		// tier sheds the same dead work.
		w.kv.Ctx = ctx
		if w.cfg.Overload.Enabled && deadline != 0 {
			w.kv.NextDeadline = deadline
		}
		w.kv.StartOp(KVOp{Op: req.Op, Key: req.Key, Val: req.Val})
	}
}

// reply makes the answer to request opid on port to the worker's next
// send (see answer).
func (w *cacheWorker) reply(to *ipc.Port, opid uint32, wire *Wire, ctx obs.TraceContext, at machine.Time) {
	o := answer(to, opid, wire, ctx, at)
	w.pend = &o
}

// finishKV answers the frontend once the backend operation resolved. An
// abandoned backend op gets no answer: its fate is unknown, and any
// reply would be completed as acknowledged. The frontend's own attempt
// timeout handles the silence as the unknown it is.
func (w *cacheWorker) finishKV() {
	req, reply, ctx := w.cur, w.curReply, w.curCtx
	w.cur, w.curReply, w.curCtx = nil, nil, obs.TraceContext{}
	w.kv.Ctx = obs.TraceContext{}
	kv := w.kv
	if kv.Last == Abandoned {
		return
	}
	out := &Wire{Kind: MsgCacheReply, Key: req.Key}
	switch {
	case kv.Last == Expired || kv.Last == Rejected:
		// Relay the backend's typed refusal upstream: the frontend
		// learns its op was a definite no-op, not a mystery timeout.
		out = refusal(MsgCacheReply, kv.Last)
	case req.Op == OpGet:
		if kv.Last == OK && kv.LastFound {
			w.sh.install(w.cfg, req.Key, kv.LastVal)
			out.Found, out.Val = true, kv.LastVal
		}
	default:
		out.Found = kv.Last == OK
		if out.Found {
			w.sh.install(w.cfg, req.Key, req.Val)
		}
	}
	w.reply(reply, req.OpID, out, ctx, w.sys.K.Clock.Now())
}
