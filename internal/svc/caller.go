package svc

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
)

// DefaultCallTimeout is a caller's per-attempt receive timeout: long
// enough that queueing never trips it, short against the membership
// deadline so a dead server is probed again promptly.
const DefaultCallTimeout = machine.Duration(10 * 1000 * 1000) // 10 ms

// CallerMaxAttempts bounds retries per operation so a cluster whose
// replicas all die without reboot still quiesces.
const CallerMaxAttempts = 64

// KVOp is one scripted client operation.
type KVOp struct {
	Op       Op
	Key, Val uint64
}

// CallerStats is one caller's lifetime accounting.
type CallerStats struct {
	Done       int    // operations acknowledged
	Failed     int    // operations abandoned after CallerMaxAttempts
	Redirects  uint64 // NotLeader replies that updated the leader map
	Failovers  uint64 // believed-leader flips after a peer-death timeout
	Salvaged   uint64 // operations that needed more than one attempt
	Mismatches uint64 // Gets that contradicted this caller's acked Puts
}

// Outcome is how an operation ended: acknowledged (OK), shed as Expired
// (its deadline passed) or Rejected (admission refused, retry budget
// empty or breaker open) by a tier or the caller's own gates, or
// Abandoned at the attempt cap with its fate unknown. A tier relays an
// Expired or Rejected outcome upstream as a typed reply; an armed
// tier's dequeue gate reports OK for a request it admits.
type Outcome uint8

const (
	OK Outcome = iota
	Expired
	Rejected
	Abandoned
)

// caller phases: run the op script, then report done to each replica,
// then exit. A one-shot caller (the cache tier's embedded client) parks
// between operations instead, and its host drives the done protocol
// explicitly.
const (
	phaseOps = iota
	phaseDone
	phaseExit
	phaseParked
)

// Caller runs a scripted sequence of KV operations against the replica
// group from a client machine: it routes each key to the believed leader
// of its shard group, adopts NotLeader hints, and on a timeout consults
// the link's membership state to fail over — the haClient pattern
// generalized to per-group leadership. All state lives on the program
// object, so the same caller survives its own machine's crash; the
// reboot script calls Reset and restarts the thread, and it resumes at
// the operation it was on.
//
// Consistency bookkeeping: every caller owns a disjoint key range, so an
// acknowledged Put fixes the value any later Get must see; divergence is
// counted in Stats.Mismatches (an abandoned Put releases its key — the
// write may or may not have landed).
type Caller struct {
	Sys *kern.System
	// Name names the caller's thread; its reply port reads Name followed
	// by "-reply". Callers of one group share a base, each with its own
	// index (core.IndexedName).
	Name core.Name
	// ID is this caller's global index among all client threads — the
	// done protocol's identity.
	ID  int
	Map ShardMap
	// Links maps replica rank -> this machine's link index.
	Links [NumRanks]int
	// Timeout is the per-attempt receive timeout.
	Timeout machine.Duration
	// MaxAttempts overrides CallerMaxAttempts when nonzero — the storm
	// sessions lower it so a collapsed run's abandoned backlog still
	// drains in bounded simulated time.
	MaxAttempts int
	// Port overrides the wire name the caller targets (PortName if empty)
	// — the service-graph frontends aim at the cache tier's port instead.
	Port string
	// HistName, when nonempty, names the service histogram end-to-end
	// operation latency is observed into (e.g. "kv.op").
	HistName string
	Ops      []KVOp
	// OneShot parks the caller after each completed operation instead of
	// moving on to the done protocol; the host (a cache worker) submits
	// operations with StartOp and reads Last for the outcome.
	OneShot bool
	// Track enables the acked-Put/Get consistency bookkeeping; only valid
	// when this caller's keys are written by nobody else.
	Track bool
	// Record makes the caller log every scripted operation into History
	// for the post-run linearizability check: invoke/return stamped with
	// simulated time, unacknowledged ops marked indeterminate. The slice
	// is caller-local (no cross-machine sharing), so recording is safe
	// under the parallel driver and merge order is the workload's problem.
	Record bool

	Stats CallerStats
	// History is the recorded operation log (Record only). It survives
	// the caller's machine crashing — the history is the client's own
	// notebook, not server state.
	History []check.Op

	// Ctx, when sampled, is the causal-trace context the next operation
	// runs under: the operation becomes a child span of Ctx.Span instead
	// of a new trace root. The cache tier sets it per fetch so a
	// frontend's trace follows the miss path down to the KV group.
	Ctx obs.TraceContext

	// Overload arms the client-side overload controls when Enabled:
	// per-op absolute deadlines stamped into the message header (and
	// enforced locally before each attempt), the retry budget spent per
	// retransmission, and the circuit breaker consulted before every
	// send. Nil or disabled leaves every legacy path untouched.
	Overload *overload.Policy
	// Budget is the per-client retry token bucket (armed runs only):
	// retransmits beyond the first attempt spend a token, and an empty
	// bucket fast-fails the op instead of amplifying offered load.
	Budget *overload.RetryBudget
	// Breaker is the frontend circuit breaker (armed runs only).
	Breaker *overload.Breaker
	// OvStats is the client tier's shedding scoreboard, shared across a
	// machine's callers (armed runs only).
	OvStats *overload.Stats
	// IntendedStart, when nonzero, is the operation's intended open-loop
	// arrival time: latency accounting charges from it instead of the
	// first attempt's send, so a backlogged session cannot fake an SLA
	// win via coordinated omission. Set per op by the session host.
	IntendedStart machine.Time
	// NextDeadline, when nonzero, overrides the next operation's
	// absolute deadline — a host tier propagating an inherited budget
	// downstream (the cache worker's embedded fetch). Consumed at op
	// start.
	NextDeadline machine.Time

	// Last is how the most recently finished operation ended; LastFound
	// and LastVal are what it read when it ended OK.
	Last      Outcome
	LastFound bool
	LastVal   uint64

	reply    *ipc.Port
	believed []int
	phase    int
	idx      int
	doneRank int
	attempts int
	opid     uint32
	waiting  bool
	started  machine.Time
	acked    map[uint64]uint64

	// trace is the in-flight operation's span context (zero when the op
	// is unsampled); opSerial numbers every operation this caller ever
	// started (one-shot callers reuse idx 0, so idx cannot mint ids);
	// attemptAt stamps the current attempt's send for retry spans.
	trace     obs.TraceContext
	opSerial  uint64
	attemptAt machine.Time

	// deadline is the in-flight operation's absolute deadline (zero:
	// none); opRefused holds while every finished attempt was
	// definitively refused before application (typed fast-fail reply,
	// or never sent) — a timeout clears it, because that attempt's fate
	// is unknown. A failed op with opRefused still true is recorded as
	// a definite no-op for the checker.
	deadline  machine.Time
	opRefused bool

	sendAct  core.Action
	drainAct core.Action
}

// Reset re-arms the caller for a (re)booted incarnation of its machine:
// fresh reply port, no in-flight attempt. Script position and
// consistency bookkeeping are retained — they are the caller's durable
// identity.
func (c *Caller) Reset(s *kern.System) {
	c.reply = s.IPC.NewNamedPort(c.Name.Suffixed("-reply"))
	c.waiting = false
	c.attempts = 0
}

// group returns the shard group the current operation routes to.
func (c *Caller) group() int { return c.Map.GroupOfKey(c.Ops[c.idx].Key) }

// portName resolves the wire name the caller targets.
func (c *Caller) portName() string {
	if c.Port != "" {
		return c.Port
	}
	return PortName
}

// target resolves the current attempt's destination proxy port.
func (c *Caller) target() *ipc.Port {
	rank := c.doneRank
	if c.phase == phaseOps {
		rank = c.believed[c.group()]
	}
	return c.Sys.Links[c.Links[rank]].ProxyFor(c.portName())
}

// buildWire renders the current attempt's request.
func (c *Caller) buildWire() *Wire {
	if c.phase == phaseDone {
		return &Wire{Kind: MsgDone, From: c.ID, OpID: c.opid}
	}
	op := c.Ops[c.idx]
	return &Wire{Kind: MsgClientOp, OpID: c.opid, Op: op.Op, Key: op.Key, Val: op.Val}
}

func (c *Caller) Next(e *core.Env, t *core.Thread) core.Action {
	act, fin := c.Step(e, t)
	if fin {
		return core.Exit()
	}
	return act
}

// StartOp submits one operation to a parked one-shot caller.
func (c *Caller) StartOp(op KVOp) {
	c.Ops = append(c.Ops[:0], op)
	c.idx = 0
	c.phase = phaseOps
	c.attempts = 0
	c.waiting = false
}

// StartDone moves a parked one-shot caller into the done protocol; Step
// reports finished once every replica has acknowledged (or given up on).
func (c *Caller) StartDone() {
	c.phase = phaseDone
	c.doneRank = 0
	c.attempts = 0
	c.waiting = false
}

// Step advances the caller one dispatch: it returns the next blocking
// action, or finished=true when there is nothing left to do (script and
// done protocol complete, or a one-shot operation parked).
func (c *Caller) Step(e *core.Env, t *core.Thread) (core.Action, bool) {
	if c.sendAct.Invoke == nil {
		if c.believed == nil {
			c.believed = make([]int, c.Map.Groups)
			for g := range c.believed {
				c.believed[g] = c.Map.InitialLeader(g)
			}
			c.acked = make(map[uint64]uint64)
		}
		c.sendAct = core.Syscall("mach_msg(kv-call)", func(e *core.Env) {
			w := c.buildWire()
			msg := c.Sys.IPC.NewMessage(c.opid, wireBytes(w), w, c.reply)
			// Stamp both the message and the thread explicitly: the
			// thread may still carry the previous operation's context.
			msg.Trace = c.trace
			msg.Deadline = c.deadline
			e.Cur().Trace = c.trace
			c.Sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send: msg, SendTo: c.target(),
				ReceiveFrom: c.reply, RcvTimeout: c.Timeout,
			})
		})
		c.drainAct = core.Syscall("mach_msg(kv-drain)", func(e *core.Env) {
			c.Sys.IPC.MachMsg(e, ipc.MsgOptions{
				ReceiveFrom: c.reply, RcvTimeout: c.Timeout,
			})
		})
	}
	if c.waiting {
		if m := c.Sys.IPC.Received(t); m != nil {
			if m.OpID != c.opid|ipc.ReplyBit {
				// A late reply to an already-retried attempt; keep draining
				// for the current one.
				c.Sys.IPC.FreeMessage(m)
				return c.drainAct, false
			}
			w, _ := m.Body.(*Wire)
			c.Sys.IPC.FreeMessage(m)
			c.waiting = false
			switch {
			case w == nil:
				// Malformed reply; retry.
			case (w.Expired || w.Rejected) && c.phase == phaseOps:
				// A typed overload refusal: some tier shed the op before
				// applying anything, so this attempt is a definite no-op
				// and opRefused survives. The refusal counts against the
				// breaker; Expired means the deadline itself is dead, so
				// give up now rather than burn budget on a corpse. A
				// Rejected op retries through the budget gate below —
				// but a budget-less caller has no way to pace those
				// retries, so it sheds at once instead of spinning at
				// RTT speed.
				c.breakerFailure()
				if w.Expired {
					if c.OvStats != nil {
						c.OvStats.Expired++
					}
					c.fail(t, Expired, "shed:expired")
				} else if c.Budget == nil {
					if c.OvStats != nil {
						c.OvStats.Rejected++
					}
					c.fail(t, Rejected, "shed:rejected")
				}
			case w.NotLeader && c.phase == phaseOps:
				g := c.group()
				if w.Leader >= 0 && w.Leader < NumRanks && w.Leader != c.believed[g] {
					c.believed[g] = w.Leader
					c.Stats.Redirects++
				}
			default:
				c.breakerSuccess()
				c.complete(w, t)
			}
		} else {
			// Timed out. A silent believed leader that the membership layer
			// has declared dead means the lease has expired: flip to the
			// other rank, which will have elected itself.
			stalled := false
			if c.phase == phaseOps {
				g := c.group()
				if !c.Sys.Links[c.Links[c.believed[g]]].PeerAlive() {
					stalled = true
					c.believed[g] = NumRanks - 1 - c.believed[g]
					c.Stats.Failovers++
					if r := c.Sys.K.Obs; r.TakesEvents() {
						detail := ""
						if r.Retains() {
							detail = fmt.Sprintf("group %d -> rank %d", g, c.believed[g])
						}
						r.EmitArg(obs.Failover, t.ID, detail, 1)
					}
				}
			}
			if c.trace.Sampled() && c.phase == phaseOps {
				// The attempt's window was lost to recovery: an election
				// stall when the leader was declared dead, plain retry
				// backoff otherwise.
				r := c.Sys.K.Obs
				name, seg := "kv.retry", obs.SegRetry
				if stalled {
					name, seg = "election-stall", obs.SegElection
				}
				r.RecordSpan(obs.Span{
					Trace: c.trace.Trace, ID: r.NextSpanID(c.trace.Trace),
					Parent: c.trace.Span, Name: name, Seg: seg, TID: t.ID,
					Start: c.attemptAt, End: c.Sys.K.Clock.Now(),
				})
			}
			if c.phase == phaseOps {
				// The attempt vanished: its fate at the servers is
				// unknown, so the op can no longer be a definite no-op.
				c.opRefused = false
				c.breakerFailure()
			}
			max := CallerMaxAttempts
			if c.MaxAttempts > 0 {
				max = c.MaxAttempts
			}
			if c.attempts >= max {
				c.fail(t, Abandoned, "abandoned")
			}
			c.waiting = false
		}
	}
	for {
		if !c.waiting && (c.phase == phaseExit || c.phase == phaseParked) {
			return core.Action{}, true
		}
		if c.attempts == 0 {
			c.started = c.Sys.K.Clock.Now()
			c.mintOp()
			if c.phase == phaseOps {
				c.deadline = 0
				c.opRefused = true
				if c.NextDeadline != 0 {
					c.deadline = c.NextDeadline
					c.NextDeadline = 0
				} else if c.armed() {
					c.deadline = c.started + machine.Time(c.Overload.Deadline)
				}
			}
		}
		if c.phase != phaseOps || (c.deadline == 0 && !c.armed()) {
			break
		}
		// Overload gates, cheapest first: a dead deadline (the op cannot
		// be answered in budget no matter what), then the retry budget
		// (the first attempt is free), then the breaker. A shed op fails
		// fast and the loop moves on to the next one — fast local errors
		// instead of a slow retransmit storm.
		now := c.Sys.K.Clock.Now()
		if c.deadline != 0 && now >= c.deadline {
			if c.OvStats != nil {
				c.OvStats.Expired++
			}
			c.fail(t, Expired, "shed:deadline")
			continue
		}
		if c.attempts > 0 && c.Budget != nil && !c.Budget.Take(now) {
			if c.OvStats != nil {
				c.OvStats.BudgetDenied++
			}
			c.fail(t, Rejected, "shed:retry-budget")
			continue
		}
		if c.Breaker != nil && !c.Breaker.Allow(now) {
			if c.OvStats != nil {
				c.OvStats.BreakerFastFail++
			}
			c.fail(t, Rejected, "shed:breaker")
			continue
		}
		break
	}
	c.attemptAt = c.Sys.K.Clock.Now()
	c.attempts++
	c.waiting = true
	c.opid = ipc.NextOpID(c.opid)
	return c.sendAct, false
}

// armed reports whether the client-side overload controls are on.
func (c *Caller) armed() bool { return c.Overload != nil && c.Overload.Enabled }

// breakerFailure feeds a failed attempt to the breaker, counting the
// closed->open edge.
func (c *Caller) breakerFailure() {
	if c.Breaker == nil || c.phase != phaseOps {
		return
	}
	if c.Breaker.Failure(c.Sys.K.Clock.Now()) && c.OvStats != nil {
		c.OvStats.BreakerOpens++
	}
}

// breakerSuccess feeds a completed round trip to the breaker.
func (c *Caller) breakerSuccess() {
	if c.Breaker != nil && c.phase == phaseOps {
		c.Breaker.Success()
	}
}

// mintOp establishes the new operation's trace context: a child of the
// preset Ctx when the host tier passed one down, otherwise a fresh root
// minted from the caller's identity and operation serial — kept or
// dropped by the head-sampling decision. Done-protocol traffic is never
// traced.
func (c *Caller) mintOp() {
	c.trace = obs.TraceContext{}
	if c.phase != phaseOps {
		return
	}
	r := c.Sys.K.Obs
	if r == nil {
		return
	}
	if c.Ctx.Sampled() {
		c.trace = obs.TraceContext{
			Trace: c.Ctx.Trace, Span: r.NextSpanID(c.Ctx.Trace), Parent: c.Ctx.Span,
		}
		return
	}
	if c.OneShot {
		// A one-shot caller continues its host's trace or stays dark: a
		// cache fetch is never an operation of its own.
		return
	}
	c.opSerial++
	tid := obs.MintTraceID(uint64(c.ID)+1, c.opSerial)
	if !r.SampleTrace(tid) {
		return
	}
	c.trace = obs.TraceContext{Trace: tid, Span: r.NextSpanID(tid)}
}

// finishSpan closes the operation's span (the trace root, or a child of
// the host tier's span). Roots carry SegQueue so the critical-path
// sweep's uncovered residual lands in "queue"; child spans are the
// parent's downstream service time.
func (c *Caller) finishSpan(t *core.Thread, end machine.Time, detail string) {
	if !c.trace.Sampled() {
		return
	}
	seg := obs.SegQueue
	if c.trace.Parent != 0 {
		seg = obs.SegService
	}
	name := c.HistName
	if name == "" {
		name = "op"
	}
	c.Sys.K.Obs.RecordSpan(obs.Span{
		Trace: c.trace.Trace, ID: c.trace.Span, Parent: c.trace.Parent,
		Name: name, Seg: seg, TID: t.ID, Detail: detail,
		Start: c.started, End: end,
	})
	c.trace = obs.TraceContext{}
}

// complete finishes the current operation on a matching acknowledgement.
func (c *Caller) complete(w *Wire, t *core.Thread) {
	if c.phase == phaseDone {
		c.nextDone()
		return
	}
	op := c.Ops[c.idx]
	c.Stats.Done++
	if c.attempts > 1 {
		c.Stats.Salvaged++
	}
	now := c.Sys.K.Clock.Now()
	if c.HistName != "" {
		if r := c.Sys.K.Obs; r != nil {
			r.Service(c.HistName).Observe(uint64(now - c.chargeFrom()))
		}
	}
	// The span closes on the same [started, now] pair the histogram
	// observed, so per-op segment sums equal the measured round trip.
	c.finishSpan(t, now, "")
	if c.Record {
		c.History = append(c.History, check.Op{
			Client: c.ID, Kind: histKind(op.Op), Key: op.Key,
			Val: histVal(op, w), Found: op.Op == OpPut || w.Found,
			Invoke: c.started, Return: now, Ok: true,
		})
	}
	c.Last, c.LastFound, c.LastVal = OK, w.Found, w.Val
	if c.Track {
		if op.Op == OpGet {
			if want, ok := c.acked[op.Key]; ok && (!w.Found || w.Val != want) {
				c.Stats.Mismatches++
			}
		} else {
			c.acked[op.Key] = op.Val
		}
	}
	c.advance()
}

// fail ends the current operation unacknowledged with outcome o;
// detail labels its span. An Abandoned op hit the attempt cap and its
// fate is unknown, so a put's key proves nothing about later reads
// anymore. An Expired or Rejected op was shed — deadline dead, retry
// budget empty, breaker open, or a tier's typed refusal — and when
// every finished attempt was definitively refused (opRefused) it is a
// definite no-op: the history marks it Rejected so the checker may
// exclude it, and an acked-put key stays trusted because the refused
// write cannot have landed. In the done protocol, failing gives up on
// the current rank.
func (c *Caller) fail(t *core.Thread, o Outcome, detail string) {
	if c.phase == phaseDone {
		c.nextDone()
		return
	}
	op := c.Ops[c.idx]
	now := c.Sys.K.Clock.Now()
	refused := o != Abandoned && c.opRefused
	c.Stats.Failed++
	c.observeFail()
	c.finishSpan(t, now, detail)
	if c.Record {
		c.History = append(c.History, check.Op{
			Client: c.ID, Kind: histKind(op.Op), Key: op.Key, Val: op.Val,
			Invoke: c.started, Return: now, Ok: false, Rejected: refused,
		})
	}
	c.Last, c.LastFound = o, false
	if c.Track && !refused && op.Op == OpPut {
		delete(c.acked, op.Key)
	}
	c.advance()
}

// nextDone moves the done protocol on to the next replica rank, and to
// exit after the last.
func (c *Caller) nextDone() {
	c.doneRank++
	c.attempts = 0
	if c.doneRank >= NumRanks {
		c.phase = phaseExit
	}
}

// chargeFrom is the instant latency accounting charges an operation
// from: the intended open-loop arrival when the session host set one,
// the first attempt's send otherwise.
func (c *Caller) chargeFrom() machine.Time {
	if c.IntendedStart != 0 {
		return c.IntendedStart
	}
	return c.started
}

// observeFail charges a failed operation's whole disposition to the
// dedicated failure-outcome histogram (HistName + ".fail"), from the
// intended arrival — shedding must not fake an SLA win by dropping the
// op from the latency record (coordinated omission). Armed runs only,
// so legacy reports are untouched.
func (c *Caller) observeFail() {
	if !c.armed() || c.HistName == "" {
		return
	}
	r := c.Sys.K.Obs
	if r == nil {
		return
	}
	r.Service(c.HistName + ".fail").Observe(uint64(c.Sys.K.Clock.Now() - c.chargeFrom()))
}

// histKind maps a wire op to the checker's operation kind.
func histKind(op Op) check.OpKind {
	if op == OpPut {
		return check.OpPut
	}
	return check.OpGet
}

// histVal is the value a history entry carries: what a put wrote, or
// what a get observed.
func histVal(op KVOp, w *Wire) uint64 {
	if op.Op == OpPut {
		return op.Val
	}
	return w.Val
}

func (c *Caller) advance() {
	c.idx++
	c.attempts = 0
	if c.idx < len(c.Ops) {
		return
	}
	if c.OneShot {
		c.phase = phaseParked
		return
	}
	c.phase = phaseDone
	c.doneRank = 0
}
