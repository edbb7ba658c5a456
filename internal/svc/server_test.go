package svc

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
)

// The tests in this file drive the svc state machines one event at a
// time: a server or caller installed on a booted machine, crafted Wire
// messages handed straight to its handler, and the state checked after
// every step. Nothing runs the kernel, so each step sees exactly the
// effect of the one message it delivered.

// step is one named event of a sequence together with its checks.
type step struct {
	name string
	run  func(t *testing.T)
}

// sequence runs steps in order against shared state, each as a subtest.
// The first failing step ends the sequence: every later step builds on
// the state it left.
func sequence(t *testing.T, steps ...step) {
	t.Helper()
	for _, s := range steps {
		if !t.Run(s.name, s.run) {
			return
		}
	}
}

const millis = machine.Duration(1000 * 1000)

// bootMachine boots one MK40 DS3100 machine at simulated time zero, with
// a retaining event recorder so fencing events can be read back.
func bootMachine() *kern.System {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	sys.EnableObservation(obs.DefaultCapacity)
	return sys
}

// thread returns thread i of the machine's task named task.
func thread(t *testing.T, sys *kern.System, task string, i int) *core.Thread {
	t.Helper()
	for _, tk := range sys.Tasks() {
		if tk.Name == task {
			return tk.Threads[i]
		}
	}
	t.Fatalf("no task %q", task)
	return nil
}

// bootReplica installs rank 0 of a replica pair whose peer sits on
// Links[0], and returns the replica with its thread.
func bootReplica(t *testing.T, cfg *ReplicaConfig) (*kern.System, *Replica, *core.Thread) {
	t.Helper()
	sys := bootMachine()
	cfg.Rank, cfg.PeerRank = 0, 1
	cfg.Map = NewShardMap(0, 0)
	cfg.RenewEvery = DefaultRenewEvery
	cfg.IdleExit = DefaultIdleExit
	InstallReplica(sys, cfg)
	th := thread(t, sys, "kv-replica", 0)
	return sys, th.Program.(*Replica), th
}

// bootCache installs a one-worker cache tier and returns the worker.
func bootCache(t *testing.T, cfg *CacheConfig) (*kern.System, *cacheWorker) {
	t.Helper()
	sys := bootMachine()
	cfg.Map = NewShardMap(0, 0)
	cfg.Workers, cfg.Capacity = 1, 8
	cfg.Timeout, cfg.IdleExit = DefaultCallTimeout, DefaultIdleExit
	InstallCache(sys, cfg)
	return sys, thread(t, sys, "cache", 0).Program.(*cacheWorker)
}

// request crafts a message carrying w, to be answered on reply.
func request(sys *kern.System, w *Wire, reply *ipc.Port) *ipc.Message {
	return sys.IPC.NewMessage(w.OpID, wireBytes(w), w, reply)
}

// takeOut returns and clears the replica's queued outbound messages.
func takeOut(r *Replica) []outbound {
	out := append([]outbound(nil), r.out...)
	r.out = r.out[:0]
	return out
}

// takePend returns and clears the cache worker's pending answer.
func takePend(w *cacheWorker) []outbound {
	if w.pend == nil {
		return nil
	}
	o := *w.pend
	w.pend = nil
	return []outbound{o}
}

// wantOne checks that exactly one message was queued and returns it.
func wantOne(t *testing.T, out []outbound) outbound {
	t.Helper()
	if len(out) != 1 {
		t.Fatalf("%d messages queued, want 1: %+v", len(out), out)
	}
	return out[0]
}

// wantAnswer checks that o answers request opid on port to with a reply
// of the given kind: the message carries opid|ipc.ReplyBit and the Wire
// echoes opid.
func wantAnswer(t *testing.T, o outbound, to *ipc.Port, opid uint32, kind MsgKind) *Wire {
	t.Helper()
	if o.to != to {
		t.Fatalf("answer sent to %v, want %v", o.to, to)
	}
	if o.opid != opid|ipc.ReplyBit {
		t.Fatalf("answer op id %#x, want %#x", o.opid, opid|ipc.ReplyBit)
	}
	if o.w.OpID != opid || o.w.Kind != kind {
		t.Fatalf("answer wire %v op %d, want %v op %d", o.w.Kind, o.w.OpID, kind, opid)
	}
	return o.w
}

// wantPeer checks that o goes to the replica's peer with the given kind.
func wantPeer(t *testing.T, r *Replica, o outbound, kind MsgKind) *Wire {
	t.Helper()
	if o.to != r.peerLink().ProxyFor(PortName) {
		t.Fatalf("%v sent to %v, want the peer's proxy", o.w.Kind, o.to)
	}
	if o.w.Kind != kind || o.w.From != r.cfg.Rank {
		t.Fatalf("peer message %v from %d, want %v from %d", o.w.Kind, o.w.From, kind, r.cfg.Rank)
	}
	return o.w
}

// keyIn returns the smallest key at or above from in shard group g.
func keyIn(m ShardMap, g int, from uint64) uint64 {
	for k := from; ; k++ {
		if m.GroupOfKey(k) == g {
			return k
		}
	}
}

// fencingEvents returns the details and args of the machine's fencing
// events, in emit order.
func fencingEvents(sys *kern.System) (details []string, args []int) {
	for _, ev := range sys.K.Obs.Events() {
		if ev.Kind == obs.Fencing {
			details = append(details, ev.Detail)
			args = append(args, ev.Arg)
		}
	}
	return details, args
}

// tier is one server tier under test: how to hand it a message, read
// what it queued in answer, and read its done ledger.
type tier struct {
	name    string
	sys     *kern.System
	deliver func(m *ipc.Message)
	answers func() []outbound
	left    func() int
	ov      *overload.Stats
	// reply is the kind a client request is answered with; seed stores
	// a value as if an earlier write had landed; applied reports whether
	// the tier acted on a write to key.
	reply   MsgKind
	seed    func(key, val uint64)
	applied func(key uint64) bool
}

// tiers boots a replica and a cache worker, each with clients done
// reporters and the given overload policy.
func tiers(t *testing.T, clients int, pol overload.Policy) []tier {
	rcfg := &ReplicaConfig{Clients: clients, Overload: pol}
	rsys, r, th := bootReplica(t, rcfg)
	ccfg := &CacheConfig{Frontends: clients, Overload: pol}
	csys, w := bootCache(t, ccfg)
	return []tier{{
		name:    "replica",
		sys:     rsys,
		deliver: func(m *ipc.Message) { r.handle(th, m) },
		answers: func() []outbound { return takeOut(r) },
		left:    func() int { return rcfg.ledger.left },
		ov:      rcfg.Ov,
		reply:   MsgReply,
		seed: func(key, val uint64) {
			r.apply(rcfg.Map.ShardOf(key), key, val, Version{Epoch: 1, Seq: 1})
		},
		applied: func(key uint64) bool {
			_, ok := r.Store(key)
			return ok || len(r.pending) > 0
		},
	}, {
		name:    "cache",
		sys:     csys,
		deliver: func(m *ipc.Message) { w.handle(m) },
		answers: func() []outbound { return takePend(w) },
		left:    func() int { return ccfg.ledger.left },
		ov:      ccfg.Ov,
		reply:   MsgCacheReply,
		seed:    func(key, val uint64) { w.sh.install(ccfg, key, val) },
		applied: func(key uint64) bool {
			_, ok := w.sh.entries[key]
			return ok || w.inKV
		},
	}}
}

// TestDoneLedger walks both tiers' done protocol: each client's first
// done counts once, a repeated or out-of-range index counts nothing, and
// every done that names a reply port is answered with opid|ipc.ReplyBit
// and Found.
func TestDoneLedger(t *testing.T) {
	for _, tr := range tiers(t, 3, overload.Policy{}) {
		t.Run(tr.name, func(t *testing.T) {
			reply := tr.sys.IPC.NewPort("client-reply")
			done := func(from int, opid uint32, to *ipc.Port) []outbound {
				tr.deliver(request(tr.sys, &Wire{Kind: MsgDone, From: from, OpID: opid}, to))
				return tr.answers()
			}
			wantLeft := func(t *testing.T, n int) {
				t.Helper()
				if got := tr.left(); got != n {
					t.Fatalf("%d clients left, want %d", got, n)
				}
			}
			sequence(t,
				step{"boot: every client outstanding", func(t *testing.T) {
					wantLeft(t, 3)
				}},
				step{"first done from client 1 counts and is answered", func(t *testing.T) {
					w := wantAnswer(t, wantOne(t, done(1, 7, reply)), reply, 7, MsgReply)
					if !w.Found {
						t.Fatal("done acknowledgement lacks Found")
					}
					wantLeft(t, 2)
				}},
				step{"repeated done from client 1 counts nothing, still answered", func(t *testing.T) {
					wantAnswer(t, wantOne(t, done(1, 8, reply)), reply, 8, MsgReply)
					wantLeft(t, 2)
				}},
				step{"out-of-range indices count nothing, still answered", func(t *testing.T) {
					wantAnswer(t, wantOne(t, done(-1, 9, reply)), reply, 9, MsgReply)
					wantAnswer(t, wantOne(t, done(3, 10, reply)), reply, 10, MsgReply)
					wantLeft(t, 2)
				}},
				step{"done without a reply port counts, answers nothing", func(t *testing.T) {
					if out := done(0, 11, nil); len(out) != 0 {
						t.Fatalf("answered a done with no reply port: %+v", out)
					}
					wantLeft(t, 1)
				}},
				step{"last client's done empties the ledger", func(t *testing.T) {
					wantAnswer(t, wantOne(t, done(2, 12, reply)), reply, 12, MsgReply)
					wantLeft(t, 0)
				}},
			)
		})
	}
}

// TestArmedGate walks both tiers' armed dequeue gate: a request past its
// deadline is Expired, one whose queue sojourn stayed over the CoDel
// target for a full interval is Rejected, anything else is Admitted.
// Shed requests get a typed reply carrying the request's trace and
// nothing is applied.
func TestArmedGate(t *testing.T) {
	pol := overload.DefaultPolicy()
	m := NewShardMap(0, 0)
	key := keyIn(m, 0, 1) // group 0: led by rank 0, the replica under test
	hit := keyIn(m, 0, key+1)
	ctx := obs.TraceContext{Trace: 9, Span: 3}
	for _, tr := range tiers(t, 1, pol) {
		t.Run(tr.name, func(t *testing.T) {
			reply := tr.sys.IPC.NewPort("client-reply")
			clock := tr.sys.K.Clock
			send := func(op Op, key uint64, opid uint32, deadline, enq machine.Time) {
				w := &Wire{Kind: MsgClientOp, OpID: opid, Op: op, Key: key, Val: 100 + uint64(opid)}
				if tr.reply == MsgCacheReply {
					w.Kind = MsgCacheReq
				}
				msg := request(tr.sys, w, reply)
				msg.Deadline, msg.EnqueuedAt, msg.Trace = deadline, enq, ctx
				tr.deliver(msg)
			}
			wantOv := func(t *testing.T, want overload.Stats) {
				t.Helper()
				if *tr.ov != want {
					t.Fatalf("overload counters %+v, want %+v", *tr.ov, want)
				}
			}
			wantShed := func(t *testing.T, opid uint32, expired bool) {
				t.Helper()
				o := wantOne(t, tr.answers())
				w := wantAnswer(t, o, reply, opid, tr.reply)
				if w.Expired != expired || w.Rejected == expired || w.Found {
					t.Fatalf("typed reply expired=%v rejected=%v found=%v, want expired=%v",
						w.Expired, w.Rejected, w.Found, expired)
				}
				if o.trace != ctx || o.at != clock.Now() {
					t.Fatalf("typed reply traced %+v at %d, want %+v at %d", o.trace, o.at, ctx, clock.Now())
				}
				if tr.applied(key) {
					t.Fatal("a shed write was applied")
				}
			}
			sequence(t,
				step{"put past its deadline is expired", func(t *testing.T) {
					tr.seed(hit, 5)
					clock.Advance(5 * millis)
					send(OpPut, key, 21, machine.Time(millis), clock.Now())
					wantOv(t, overload.Stats{Expired: 1})
					wantShed(t, 21, true)
				}},
				step{"first sojourn breach is admitted", func(t *testing.T) {
					send(OpGet, hit, 22, 0, clock.Now()-2*machine.Time(millis))
					wantOv(t, overload.Stats{Expired: 1, Admitted: 1})
					w := wantAnswer(t, wantOne(t, tr.answers()), reply, 22, tr.reply)
					if !w.Found || w.Val != 5 || w.Expired || w.Rejected {
						t.Fatalf("get answered %+v, want found 5", w)
					}
				}},
				step{"sojourn over target for a full interval is rejected", func(t *testing.T) {
					clock.Advance(pol.Interval)
					send(OpPut, key, 23, 0, clock.Now()-2*machine.Time(millis))
					wantOv(t, overload.Stats{Expired: 1, Rejected: 1, Admitted: 1})
					wantShed(t, 23, false)
				}},
				step{"a dead request is expired before admission is consulted", func(t *testing.T) {
					// CoDel would refuse this one too: a full pacing interval
					// after its first rejection, with the sojourn still high.
					clock.Advance(pol.Interval)
					send(OpPut, key, 24, machine.Time(millis), clock.Now()-2*machine.Time(millis))
					wantOv(t, overload.Stats{Expired: 2, Rejected: 1, Admitted: 1})
					wantShed(t, 24, true)
				}},
				step{"fresh put is admitted and acted on", func(t *testing.T) {
					send(OpPut, key, 25, clock.Now()+machine.Time(pol.Deadline), clock.Now())
					wantOv(t, overload.Stats{Expired: 2, Rejected: 1, Admitted: 2})
					if !tr.applied(key) {
						t.Fatal("an admitted write was not acted on")
					}
				}},
			)
		})
	}
}

// TestBreakOverloadAppliesExpiredPut pins the negative control: with
// BreakOverload the replica applies an expired put yet still answers
// Expired — the phantom write the checker must flag. Only the replica
// has the knob.
func TestBreakOverloadAppliesExpiredPut(t *testing.T) {
	cfg := &ReplicaConfig{Clients: 1, Overload: overload.DefaultPolicy(), BreakOverload: true}
	sys, r, th := bootReplica(t, cfg)
	reply := sys.IPC.NewPort("client-reply")
	key := keyIn(r.cfg.Map, 0, 1)
	sequence(t,
		step{"expired put is answered Expired", func(t *testing.T) {
			sys.K.Clock.Advance(5 * millis)
			msg := request(sys, &Wire{Kind: MsgClientOp, OpID: 31, Op: OpPut, Key: key, Val: 77}, reply)
			msg.Deadline = machine.Time(millis)
			r.handle(th, msg)
			w := wantAnswer(t, wantOne(t, takeOut(r)), reply, 31, MsgReply)
			if !w.Expired || w.Rejected {
				t.Fatalf("reply expired=%v rejected=%v, want Expired", w.Expired, w.Rejected)
			}
			if *cfg.Ov != (overload.Stats{Expired: 1}) {
				t.Fatalf("overload counters %+v", *cfg.Ov)
			}
		}},
		step{"and applied anyway", func(t *testing.T) {
			if v, ok := r.Store(key); !ok || v != 77 {
				t.Fatalf("store holds %d (present %v), want the expired put's 77", v, ok)
			}
			if r.seq[0] != 1 || cfg.Stats.Puts != 0 {
				t.Fatalf("seq %d, puts %d; want the phantom at seq 1 and no counted put", r.seq[0], cfg.Stats.Puts)
			}
		}},
	)
}

// TestFencingStaleReplicateAndRenew walks a deposed leader's traffic
// reaching the replica that replaced it: a stale replicate and a stale
// renew are each refused with FencingRejections, a fencing event and a
// RepReject teaching the current lease; neither is applied.
func TestFencingStaleReplicateAndRenew(t *testing.T) {
	cfg := &ReplicaConfig{Clients: 1}
	sys, r, th := bootReplica(t, cfg)
	key := keyIn(cfg.Map, 1, 1)
	wantReject := func(t *testing.T, n uint64) {
		t.Helper()
		w := wantPeer(t, r, wantOne(t, takeOut(r)), MsgRepReject)
		if w.Group != 1 || w.Epoch != 2 || w.Leader != 0 {
			t.Fatalf("RepReject teaches group %d epoch %d leader %d, want group 1 epoch 2 leader 0",
				w.Group, w.Epoch, w.Leader)
		}
		if cfg.Stats.FencingRejections != n {
			t.Fatalf("%d fencing rejections, want %d", cfg.Stats.FencingRejections, n)
		}
		if l := cfg.Leases.L[1]; l.Epoch != 2 || l.Leader != 0 {
			t.Fatalf("lease moved to epoch %d leader %d", l.Epoch, l.Leader)
		}
	}
	sequence(t,
		step{"rank 0 elects itself over group 1", func(t *testing.T) {
			if ep := cfg.Leases.Promote(1, 0); ep != 2 {
				t.Fatalf("promoted to epoch %d, want 2", ep)
			}
		}},
		step{"the deposed leader's replicate is fenced", func(t *testing.T) {
			r.handle(th, request(sys, &Wire{Kind: MsgReplicate, From: 1, Group: 1,
				Shard: cfg.Map.ShardOf(key), Key: key, Val: 5, Epoch: 1, Seq: 9}, nil))
			wantReject(t, 1)
			if _, ok := r.Store(key); ok || r.seq[1] != 0 || cfg.Stats.Replicated != 0 {
				t.Fatalf("stale replicate applied: seq %d, replicated %d", r.seq[1], cfg.Stats.Replicated)
			}
		}},
		step{"the deposed leader's renew is fenced", func(t *testing.T) {
			r.handle(th, request(sys, &Wire{Kind: MsgRenew, From: 1, Group: 1, Epoch: 1, Leader: 1}, nil))
			wantReject(t, 2)
		}},
		step{"each refusal emitted a fencing event naming the presented epoch", func(t *testing.T) {
			details, args := fencingEvents(sys)
			if len(details) != 2 || details[0] != "group 1 replicate" || details[1] != "group 1 renew" ||
				args[0] != 1 || args[1] != 1 {
				t.Fatalf("fencing events %q args %v", details, args)
			}
		}},
	)
}

// TestRejoinMerge walks a rejoin probe carrying the prober's store: the
// replica merges the snapshot (Merged counts each entry), fences the
// prober's displaced claim, and answers with grants plus its own merged
// store. With Break the merge is skipped in both directions.
func TestRejoinMerge(t *testing.T) {
	for _, broken := range []bool{false, true} {
		name := "merge"
		if broken {
			name = "break"
		}
		t.Run(name, func(t *testing.T) {
			cfg := &ReplicaConfig{Clients: 1, Break: broken}
			sys, r, th := bootReplica(t, cfg)
			k0, k1 := keyIn(cfg.Map, 0, 1), keyIn(cfg.Map, 1, 1)
			snap := []Entry{{Key: k0, Val: 5, Ver: Version{Epoch: 1, Seq: 3}},
				{Key: k1, Val: 6, Ver: Version{Epoch: 1, Seq: 4}}}
			wantStore := func(t *testing.T, key, val uint64) {
				t.Helper()
				v, ok := r.Store(key)
				if broken && ok {
					t.Fatalf("Break merged key %d", key)
				}
				if !broken && (!ok || v != val) {
					t.Fatalf("key %d holds %d (present %v), want %d", key, v, ok, val)
				}
			}
			sequence(t,
				step{"rank 0 elects itself over group 1", func(t *testing.T) {
					cfg.Leases.Promote(1, 0)
				}},
				step{"rejoin probe presenting the old view", func(t *testing.T) {
					r.handle(th, request(sys, &Wire{Kind: MsgRejoin, From: 1, Rejoin: &Rejoin{
						Epochs: []uint64{1, 1}, Leaders: []int{0, 1}, Snap: snap, Seqs: []uint64{3, 4}}}, nil))
					wantMerged := uint64(2)
					if broken {
						wantMerged = 0
					}
					if cfg.Stats.Merged != wantMerged || cfg.Stats.RejoinsServed != 1 {
						t.Fatalf("merged %d, rejoins served %d; want %d and 1",
							cfg.Stats.Merged, cfg.Stats.RejoinsServed, wantMerged)
					}
					wantStore(t, k0, 5)
					wantStore(t, k1, 6)
					if seqRaised := r.seq[0] == 3 && r.seq[1] == 4; seqRaised == broken {
						t.Fatalf("sequence high-water %v after merge (break %v)", r.seq, broken)
					}
				}},
				step{"the displaced claim on group 1 is fenced", func(t *testing.T) {
					details, args := fencingEvents(sys)
					if cfg.Stats.FencingRejections != 1 || len(details) != 1 ||
						details[0] != "group 1 rejoin" || args[0] != 1 {
						t.Fatalf("%d rejections, events %q args %v", cfg.Stats.FencingRejections, details, args)
					}
				}},
				step{"the answer carries grants and the merged store", func(t *testing.T) {
					w := wantPeer(t, r, wantOne(t, takeOut(r)), MsgRejoinOK).Rejoin
					if len(w.Grants) != 2 || w.Grants[0].Rejected || !w.Grants[1].Rejected ||
						w.Grants[1].Epoch != 2 || w.Grants[1].Leader != 0 {
						t.Fatalf("grants %+v", w.Grants)
					}
					wantSnap := 2
					if broken {
						wantSnap = 0
					}
					if len(w.Snap) != wantSnap || len(w.Seqs) != 2 {
						t.Fatalf("answer snapshot %+v seqs %v", w.Snap, w.Seqs)
					}
				}},
				step{"a recovering replica installs the leader's store from RejoinOK", func(t *testing.T) {
					r.recovering = true
					k2 := keyIn(cfg.Map, 0, k0+1)
					r.handle(th, request(sys, &Wire{Kind: MsgRejoinOK, From: 1, Rejoin: &Rejoin{
						Grants: []GroupGrant{{Group: 0, Epoch: 1, Leader: 0}, {Group: 1, Epoch: 2, Leader: 0}},
						Snap:   []Entry{{Key: k2, Val: 8, Ver: Version{Epoch: 1, Seq: 7}}}, Seqs: []uint64{7, 4}}}, nil))
					wantStore(t, k2, 8)
					if r.recovering || cfg.Stats.Syncs != 1 {
						t.Fatalf("recovering %v, syncs %d after RejoinOK", r.recovering, cfg.Stats.Syncs)
					}
					if cfg.Stats.Merged != map[bool]uint64{false: 2, true: 0}[broken] {
						t.Fatalf("RejoinOK counted as merged: %d", cfg.Stats.Merged)
					}
				}},
			)
		})
	}
}

// TestCallerOutcomes walks one caller through every way an operation
// ends — acknowledged, expired, rejected, abandoned — checking Stats,
// the recorded history entry's Ok/Rejected flags and the acked-put
// bookkeeping after each. A shed op whose every attempt was refused is
// a definite no-op and keeps its key trusted; an abandoned one, or a
// shed one after an attempt timed out, releases it.
func TestCallerOutcomes(t *testing.T) {
	sys := bootMachine()
	c := &Caller{Sys: sys, Name: core.NameOf("c0"), Map: NewShardMap(0, 0), Timeout: DefaultCallTimeout,
		Record: true, Track: true, Ops: []KVOp{
			{Op: OpPut, Key: 1, Val: 10}, // 0 ok
			{Op: OpGet, Key: 1},          // 1 ok, reads 10
			{Op: OpPut, Key: 1, Val: 11}, // 2 expired
			{Op: OpPut, Key: 1, Val: 12}, // 3 rejected
			{Op: OpGet, Key: 1},          // 4 ok, reads 12: a mismatch
			{Op: OpPut, Key: 1, Val: 13}, // 5 ok
			{Op: OpPut, Key: 1, Val: 14}, // 6 expired after a timed-out attempt
			{Op: OpGet, Key: 1},          // 7 ok, reads 99: key released
			{Op: OpPut, Key: 2, Val: 20}, // 8 abandoned
		}}
	c.Reset(sys)
	th := sys.NewTask("client").NewThread("c0", c, 10)
	// start issues the next operation's first attempt; the attempt's
	// send is never run.
	start := func(t *testing.T) {
		t.Helper()
		c.waiting = false
		if _, fin := c.Step(nil, th); fin || !c.waiting {
			t.Fatalf("no attempt in flight (finished %v)", fin)
		}
	}
	ok := func(w *Wire) {
		c.waiting = false
		c.complete(w, th)
	}
	shed := func(o Outcome, why string) {
		c.waiting = false
		c.fail(th, o, "shed:"+why)
	}
	abandon := func() {
		c.waiting = false
		c.fail(th, Abandoned, "abandoned")
	}
	want := func(t *testing.T, how Outcome, done, failed int, mismatches uint64) check.Op {
		t.Helper()
		if c.Last != how {
			t.Fatalf("outcome %d, want %d", c.Last, how)
		}
		if c.Stats.Done != done || c.Stats.Failed != failed || c.Stats.Mismatches != mismatches {
			t.Fatalf("stats %+v, want done %d failed %d mismatches %d", c.Stats, done, failed, mismatches)
		}
		if len(c.History) != done+failed {
			t.Fatalf("%d history entries, want %d", len(c.History), done+failed)
		}
		return c.History[len(c.History)-1]
	}
	wantAcked := func(t *testing.T, key, val uint64, present bool) {
		t.Helper()
		if v, ok := c.acked[key]; ok != present || (ok && v != val) {
			t.Fatalf("acked[%d] = %d (present %v), want %d (present %v)", key, v, ok, val, present)
		}
	}
	sequence(t,
		step{"acked put", func(t *testing.T) {
			start(t)
			ok(&Wire{Kind: MsgReply, Found: true})
			h := want(t, OK, 1, 0, 0)
			if !h.Ok || h.Rejected || h.Kind != check.OpPut || h.Val != 10 || !h.Found {
				t.Fatalf("history %+v", h)
			}
			wantAcked(t, 1, 10, true)
		}},
		step{"get reads the acked put", func(t *testing.T) {
			start(t)
			ok(&Wire{Kind: MsgReply, Found: true, Val: 10})
			h := want(t, OK, 2, 0, 0)
			if !h.Ok || h.Kind != check.OpGet || h.Val != 10 || !c.LastFound || c.LastVal != 10 {
				t.Fatalf("history %+v, last found %v val %d", h, c.LastFound, c.LastVal)
			}
		}},
		step{"expired put is a definite no-op", func(t *testing.T) {
			start(t)
			shed(Expired, "expired")
			h := want(t, Expired, 2, 1, 0)
			if h.Ok || !h.Rejected || h.Val != 11 || c.LastFound {
				t.Fatalf("history %+v, last found %v", h, c.LastFound)
			}
			wantAcked(t, 1, 10, true)
		}},
		step{"rejected put is a definite no-op", func(t *testing.T) {
			start(t)
			shed(Rejected, "rejected")
			h := want(t, Rejected, 2, 2, 0)
			if h.Ok || !h.Rejected || h.Val != 12 {
				t.Fatalf("history %+v", h)
			}
			wantAcked(t, 1, 10, true)
		}},
		step{"get reading a refused put's value is a mismatch", func(t *testing.T) {
			start(t)
			ok(&Wire{Kind: MsgReply, Found: true, Val: 12})
			want(t, OK, 3, 2, 1)
		}},
		step{"acked put retrusts the key", func(t *testing.T) {
			start(t)
			ok(&Wire{Kind: MsgReply, Found: true})
			want(t, OK, 4, 2, 1)
			wantAcked(t, 1, 13, true)
		}},
		step{"expired put after a timed-out attempt releases the key", func(t *testing.T) {
			start(t)
			c.opRefused = false // the first attempt timed out: its fate is unknown
			shed(Expired, "deadline")
			h := want(t, Expired, 4, 3, 1)
			if h.Ok || h.Rejected {
				t.Fatalf("history %+v, want an indeterminate failure", h)
			}
			wantAcked(t, 1, 0, false)
		}},
		step{"get on a released key checks nothing", func(t *testing.T) {
			start(t)
			ok(&Wire{Kind: MsgReply, Found: true, Val: 99})
			want(t, OK, 5, 3, 1)
		}},
		step{"abandoned put is indeterminate", func(t *testing.T) {
			start(t)
			abandon()
			h := want(t, Abandoned, 5, 4, 1)
			if h.Ok || h.Rejected || h.Key != 2 || h.Val != 20 || c.LastFound {
				t.Fatalf("history %+v, last found %v", h, c.LastFound)
			}
			wantAcked(t, 2, 0, false)
		}},
		step{"the script done, the done protocol reaches both ranks", func(t *testing.T) {
			if c.phase != phaseDone || c.doneRank != 0 {
				t.Fatalf("phase %d rank %d after the script", c.phase, c.doneRank)
			}
			start(t)
			ok(&Wire{Kind: MsgReply, Found: true})
			if c.doneRank != 1 || c.phase != phaseDone {
				t.Fatalf("acked done: phase %d rank %d", c.phase, c.doneRank)
			}
			start(t)
			abandon()
			if c.phase != phaseExit || c.Stats.Done != 5 || c.Stats.Failed != 4 || len(c.History) != 9 {
				t.Fatalf("abandoned done: phase %d, stats %+v, %d history entries", c.phase, c.Stats, len(c.History))
			}
		}},
	)
}

// TestCacheSilentOnAbandonedFetch pins that the cache answers nothing
// for a backend op its embedded caller abandoned. The op's fate is
// unknown, so any reply would be a claim: the frontend completes every
// untyped reply as acknowledged, and would record an unknown put as Ok
// and a get as a miss it never saw. Left unanswered, the frontend's own
// attempt timeout decides. A fetch that resolves still answers.
func TestCacheSilentOnAbandonedFetch(t *testing.T) {
	cfg := &CacheConfig{Frontends: 1}
	sys, w := bootCache(t, cfg)
	reply := sys.IPC.NewPort("frontend-reply")
	// fetch hands the worker a miss or write-through and resolves its
	// backend op with the given outcome.
	fetch := func(op Op, key uint64, opid uint32, how Outcome) {
		w.handle(request(sys, &Wire{Kind: MsgCacheReq, OpID: opid, Op: op, Key: key, Val: 7}, reply))
		if !w.inKV {
			t.Fatalf("op %d did not reach the backend", opid)
		}
		w.inKV = false
		w.kv.Last, w.kv.LastFound, w.kv.LastVal = how, how == OK, 7
		w.finishKV()
	}
	sequence(t,
		step{"abandoned put", func(t *testing.T) {
			fetch(OpPut, 1, 1, Abandoned)
			if out := takePend(w); len(out) != 0 {
				t.Fatalf("abandoned put answered: %+v", out[0].w)
			}
			if _, ok := w.sh.entries[1]; ok {
				t.Fatal("abandoned put installed its value")
			}
		}},
		step{"abandoned get", func(t *testing.T) {
			fetch(OpGet, 2, 2, Abandoned)
			if out := takePend(w); len(out) != 0 {
				t.Fatalf("abandoned get answered: %+v", out[0].w)
			}
		}},
		step{"resolved put still answers", func(t *testing.T) {
			fetch(OpPut, 3, 3, OK)
			got := wantAnswer(t, wantOne(t, takePend(w)), reply, 3, MsgCacheReply)
			if !got.Found || got.Expired || got.Rejected {
				t.Fatalf("resolved put answered %+v", got)
			}
		}},
	)
}
