// Package obs is the kernel's observability layer: a fixed-capacity
// event ring buffer, online latency histograms, and a per-continuation
// profiler, all driven by one emit API wired through the control-transfer
// engine and its substrates (core, sched, ipc, dev, fault, kern).
//
// The design mirrors the paper's evaluation method: the argument for
// continuations rests on *measured* control-transfer behavior (Tables
// 1–5 count stack usage, handoff frequency and recognition hits), so the
// simulator records those transfers as typed events stamped with the
// machine clock, the thread id, and the continuation. Everything is
// deterministic for a fixed seed — event order is the dispatch order and
// timestamps come from the simulated clock — so two identical runs export
// byte-identical traces (the CI diff relies on this).
//
// Kernel events go only to a recorder that has a reader for them: its
// ring (Retains) or the profile report. Every kernel emit site checks
// TakesEvents first, so a kernel with a nil Recorder, or with one that
// takes no events (NewServiceRecorder: service histograms, spans and
// the census only), pays one predictable branch per would-be event.
// Histograms and the profiler are updated online at emit time, so they
// cover the whole run even after the ring has started evicting old
// events. Retention is opt-in: a recorder of capacity 0 keeps no events
// and runs only the statistics, and emit sites format a detail string
// only when Retains says the ring will keep it. The statistics take the
// event's fields as values — kind, thread id, argument, time and an
// interned continuation id — so an event that is not retained is never
// built, and no thread name is built for it: a retained event names its
// thread through the lookup the kernel installs (NameThreads).
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/stats"
)

// Kind labels one recorded kernel event. The first group is the
// control-transfer steps a Figure 2-style trace shows (see Transfers);
// the second group is lifecycle instrumentation that drives the latency
// histograms and the continuation profiler.
type Kind int

const (
	// Control-transfer steps (Figure 2 rendering).
	KernelEntry Kind = iota
	KernelExit
	CopyIn
	CopyOut
	FindReceiver
	StackHandoff
	Recognition
	ContinuationCall
	ContextSwitch
	Block
	Wakeup
	QueueMessage
	DequeueMessage
	Note
	Interrupt

	// Lifecycle events new to the obs layer.

	// ThreadBlocked is the histogram-driving block record: every
	// completed blocking operation emits exactly one, carrying the
	// block reason (Detail), the continuation blocked with (Cont, none
	// for process-model blocks), and Arg=1 when the thread yielded but
	// stayed runnable.
	ThreadBlocked
	// RecognitionMiss is a failed continuation recognition: the resumer
	// expected Cont but found Detail.
	RecognitionMiss
	// Dispatch marks a thread starting to run on a processor via the
	// general resume path (handoffs mark the transfer with StackHandoff
	// instead).
	Dispatch
	// StackAttach / StackDetach bound a kernel stack's tenure on a
	// thread; together with StackHandoff they yield stack lifetimes.
	StackAttach
	StackDetach
	// RPCStart / RPCEnd bracket a client's mach_msg send+receive round
	// trip (request carries a reply port; the matching copy-out ends it).
	RPCStart
	RPCEnd
	// FaultInject records a fault plan firing (device error or latency
	// spike, packet drop/dup/delay).
	FaultInject
	// Abort records a thread_abort redirecting a blocked thread.
	Abort

	// Crash-recovery events (PR 5).

	// MachineCrash records a whole-machine failure: Detail summarizes the
	// panic record (threads killed, ports, pending I/O), Arg is the dying
	// incarnation number.
	MachineCrash
	// MachineReboot records a warm reboot; Arg is the new incarnation.
	MachineReboot
	// Heartbeat records an explicit incarnation announcement transmitted
	// by the netmsg membership layer (piggybacked heartbeats are implicit
	// in ordinary traffic and not recorded).
	Heartbeat
	// PeerDeath records the membership layer declaring a silent peer dead
	// (Detail names the link); Arg=1 marks the later recovery — the same
	// peer heard from again with a newer incarnation.
	PeerDeath
	// Failover records an RPC client redirecting to its replica server
	// (Arg=1) or failing back to the recovered primary (Arg=0).
	Failover

	// Distributed-service events (internal/svc).

	// Election records a replica promoting itself to leader of a shard
	// group after the membership layer declared the old leader dead:
	// Detail names the group, Arg is the new lease epoch.
	Election
	// Fencing records a lease fencing rejection: a replica refused a
	// request carrying a stale epoch token (a deposed or rebooted
	// leader's traffic). Detail names the group, Arg the rejected epoch.
	Fencing

	numKinds
)

// NumKinds is the count of distinct event kinds.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	switch k {
	case KernelEntry:
		return "kernel-entry"
	case KernelExit:
		return "kernel-exit"
	case CopyIn:
		return "copy-in"
	case CopyOut:
		return "copy-out"
	case FindReceiver:
		return "find-receiver"
	case StackHandoff:
		return "stack-handoff"
	case Recognition:
		return "recognition"
	case ContinuationCall:
		return "call-continuation"
	case ContextSwitch:
		return "context-switch"
	case Block:
		return "block"
	case Wakeup:
		return "wakeup"
	case QueueMessage:
		return "queue-message"
	case DequeueMessage:
		return "dequeue-message"
	case Note:
		return "note"
	case Interrupt:
		return "interrupt"
	case ThreadBlocked:
		return "thread-blocked"
	case RecognitionMiss:
		return "recognition-miss"
	case Dispatch:
		return "dispatch"
	case StackAttach:
		return "stack-attach"
	case StackDetach:
		return "stack-detach"
	case RPCStart:
		return "rpc-start"
	case RPCEnd:
		return "rpc-end"
	case FaultInject:
		return "fault-inject"
	case Abort:
		return "abort"
	case MachineCrash:
		return "machine-crash"
	case MachineReboot:
		return "machine-reboot"
	case Heartbeat:
		return "heartbeat"
	case PeerDeath:
		return "peer-death"
	case Failover:
		return "failover"
	case Election:
		return "election"
	case Fencing:
		return "fencing"
	default:
		return "unknown"
	}
}

// KindFromString is the inverse of Kind.String, used when re-ingesting
// an exported trace. The second result is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, NumKinds)
	for k := Kind(0); k < numKinds; k++ {
		m[k.String()] = k
	}
	return m
}()

// Transfers returns the control-transfer steps among events, in order:
// the kinds KernelEntry through Interrupt, less Wakeup, which is
// scheduling bookkeeping rather than a step on the path.
func Transfers(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind <= Interrupt && ev.Kind != Wakeup {
			out = append(out, ev)
		}
	}
	return out
}

// TransferString renders the control-transfer steps among events as a
// numbered step table, one "[thread] kind: detail" line per step (the
// ": detail" omitted when empty) — the Figure 2 format.
func TransferString(events []Event) string {
	var b strings.Builder
	for i, ev := range Transfers(events) {
		fmt.Fprintf(&b, "%2d. [%s] %s", i+1, ev.Thread, ev.Kind)
		if ev.Detail != "" {
			fmt.Fprintf(&b, ": %s", ev.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Event is one recorded kernel event.
type Event struct {
	// Seq is the emit sequence number within one recorder, a total
	// order even when several events share a clock reading.
	Seq uint64
	// When is the simulated machine clock at emit time.
	When machine.Time
	Kind Kind
	// TID is the acting thread's id (0 when no thread is current, e.g.
	// a fault injected in interrupt context on a parked machine).
	TID int
	// Arg is kind-specific: the previous thread's id for StackHandoff,
	// 1 for a yield-style ThreadBlocked (thread stayed runnable).
	Arg int
	// Thread is the acting thread's name, resolved from TID when the
	// event is retained; Cont the continuation involved, when any;
	// Detail a human-readable qualifier.
	Thread string
	Cont   string
	Detail string
}

// Latency indexes the recorder's histograms.
type Latency int

const (
	// LatBlockToWakeup is the time a thread spent blocked: from its
	// ThreadBlocked event to the wakeup (or handoff) that made it
	// runnable again.
	LatBlockToWakeup Latency = iota
	// LatDispatch is the time from becoming runnable to actually
	// running. Stack handoffs transfer control immediately, so they
	// contribute zero-latency samples — the fast path is visible as a
	// spike in the first bucket.
	LatDispatch
	// LatStackLifetime is how long one kernel stack stayed attached to
	// one thread (attach/handoff to detach/handoff).
	LatStackLifetime
	// LatRPCRoundTrip is a client's full mach_msg send+receive round
	// trip.
	LatRPCRoundTrip

	NumLatencies
)

func (l Latency) String() string {
	switch l {
	case LatBlockToWakeup:
		return "block->wakeup"
	case LatDispatch:
		return "dispatch latency"
	case LatStackLifetime:
		return "stack lifetime"
	case LatRPCRoundTrip:
		return "rpc round-trip"
	default:
		return "unknown"
	}
}

// ContID is an interned continuation name: a small dense integer that
// indexes a recorder's continuation profiles, so folding an event into
// its profile is a slice index, not a string hash. Same-named
// continuations share one id, and so one profile row. NoCont marks an
// event that involves no continuation.
type ContID uint32

// NoCont is the ContID of an event without a continuation.
const NoCont ContID = 0

// Intern returns name's id in the process-wide table that every live
// recorder shares; "" is NoCont. core.Continuation calls it once, at the
// continuation's first emit, and caches the result. Ids are never
// reused or removed, so the table holds one entry per distinct
// continuation name the program emits.
func Intern(name string) ContID { return liveNames.intern(name) }

// liveNames is the process-wide continuation name table (see Intern).
var liveNames nameTable

// nameTable interns continuation names as ContIDs 1, 2, .... The lock
// is taken only when a name is interned (once per continuation, at its
// first emit) and when a name is read back (once per profile row, and
// for a retained event whose continuation has no row yet), never on the
// statistics path.
type nameTable struct {
	mu    sync.Mutex
	ids   map[string]ContID
	names []string // names[id-1] is id's name
}

func (nt *nameTable) intern(name string) ContID {
	if name == "" {
		return NoCont
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if id, ok := nt.ids[name]; ok {
		return id
	}
	if nt.ids == nil {
		nt.ids = make(map[string]ContID)
	}
	nt.names = append(nt.names, name)
	id := ContID(len(nt.names))
	nt.ids[name] = id
	return id
}

// name returns id's name, "" for NoCont; id must come from this table.
func (nt *nameTable) name(id ContID) string {
	if id == NoCont {
		return ""
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return nt.names[id-1]
}

// ContProfile aggregates per-continuation behavior, the paper's §2.4
// recognition argument as a measurable table.
type ContProfile struct {
	Name string
	// Blocks counts threads blocking with this continuation.
	Blocks uint64
	// Handoffs counts stack handoffs received while blocked with it.
	Handoffs uint64
	// Calls counts resumptions through the general call_continuation
	// path.
	Calls uint64
	// RecognitionHits / RecognitionMisses count resumers that inspected
	// a blocked thread expecting this continuation and found it / found
	// something else.
	RecognitionHits   uint64
	RecognitionMisses uint64
}

// HitRate is the recognition hit percentage (0 when never probed).
func (c *ContProfile) HitRate() float64 {
	return stats.Percent(c.RecognitionHits, c.RecognitionHits+c.RecognitionMisses)
}

// DefaultCapacity is the standard event ring size, for callers that
// read the events back (trace export, Figure 2-style traces).
const DefaultCapacity = 1 << 16

// Recorder is one kernel's event sink: online histograms and the
// continuation profiler, plus a drop-oldest ring of events when asked
// to retain any, beside the service histograms, spans and census that
// workload code records directly. The zero recorder is not usable; a nil
// *Recorder is the disabled state, and every kernel emit site checks
// TakesEvents before paying any formatting cost.
type Recorder struct {
	clock *machine.Clock
	seq   uint64
	// events is whether kernel emit sites feed this recorder
	// (TakesEvents).
	events bool

	capacity int
	ring     []Event
	head     int // index of the oldest event once the ring is full

	// Dropped counts events evicted from the ring (histograms and the
	// profiler still saw them).
	Dropped uint64

	// KindCounts tallies every emitted event by kind.
	KindCounts [NumKinds]uint64

	// Hist holds the four online latency histograms.
	Hist [NumLatencies]*Histogram

	// conts holds the continuation profiles, indexed by ContID (nil for
	// continuations this recorder never saw); names resolves the ids —
	// liveNames for a live recorder, a table of its own for a replay.
	conts []*ContProfile
	names *nameTable

	// threadName is the kernel's thread-name lookup (NameThreads);
	// threadNames caches each name it built, indexed by thread id. The
	// kernel never reuses an id, not even across a crash, so an id's
	// name never changes. firstNames backs the table until an id
	// outgrows it: a kernel's first threads are its few daemons,
	// numbered from 1, so a boot names them without allocating.
	threadName  func(tid int) string
	threadNames []string
	firstNames  [8]string

	// svc holds the named service-level histograms (per-tier request
	// latencies maintained by workload code via Service, not by kernel
	// events).
	svc map[string]*Histogram

	// lat holds each thread's open latency intervals, indexed by thread
	// id. Thread ids are small sequential ints and one record is touched
	// on almost every event, so a dense slice beats a map on the hot
	// emit path.
	lat []threadLat

	// Span store (span.go): completed causal-trace spans in chunks of
	// spanChunk, the machine index salting span ids, the span-id mint
	// serial, and the 1-in-N head-sampling rate (0 and 1 both mean "keep
	// everything").
	spans       [][]Span
	host        int
	spanSalt    uint64
	sampleEvery uint64

	// Census is the machine's memory census (stack-pool high-water vs.
	// blocked threads), stamped by the workload driver before export so
	// the Chrome metadata carries it.
	Census Census
}

// Census is the paper's space claim as a per-machine measurement: how
// many kernel stacks the machine ever needed against how many threads
// were simultaneously blocked (a process-model kernel would need one
// stack per blocked thread).
type Census struct {
	StackHighWater   int
	BlockedHighWater int
	LiveThreads      int
}

// Zero reports whether the census was never stamped.
func (c Census) Zero() bool { return c == Census{} }

// threadLat is one thread's open latency intervals: when the thread
// blocked, became runnable, got its current stack, and started its RPC.
// Each is stored as time+1, so zero means no interval is open.
type threadLat struct {
	blockedAt, runnableAt, stackSince, rpcStart uint64
}

// opened stamps an interval opening at when.
func opened(when machine.Time) uint64 { return uint64(when) + 1 }

// latFor returns tid's record, growing the table to reach it; nil for a
// negative tid.
func (r *Recorder) latFor(tid int) *threadLat {
	if tid < 0 {
		return nil
	}
	if n := tid + 1 - len(r.lat); n > 0 {
		r.lat = append(r.lat, make([]threadLat, n)...)
	}
	return &r.lat[tid]
}

// latAt returns tid's record without growing the table; nil when tid
// has none.
func (r *Recorder) latAt(tid int) *threadLat {
	if tid < 0 || tid >= len(r.lat) {
		return nil
	}
	return &r.lat[tid]
}

// closeLat observes the interval open at *at, if any, as ending at when
// into histogram l, and closes it.
func (r *Recorder) closeLat(l Latency, at *uint64, when machine.Time) bool {
	if *at == 0 {
		return false
	}
	r.Hist[l].Observe(uint64(when - machine.Time(*at-1)))
	*at = 0
	return true
}

// NewRecorder returns a recorder that takes the kernel's events,
// stamping them from clock and retaining the newest capacity of them. A
// capacity of 0 (or less) retains none: histograms and profiles still
// cover every event, but Events and the trace export are empty.
func NewRecorder(clock *machine.Clock, capacity int) *Recorder {
	r := newRecorder(max(capacity, 0), &liveNames)
	r.clock = clock
	r.events = true
	return r
}

// NewServiceRecorder returns a recorder that takes no kernel events: no
// ring and no profile report reads them, so the kernel's emit sites skip
// it (TakesEvents is false). It holds only what is recorded into it
// directly — service histograms, spans and the memory census — and its
// kind counts, latency histograms, profiles and ring stay empty.
func NewServiceRecorder(clock *machine.Clock) *Recorder {
	r := newRecorder(0, &liveNames)
	r.clock = clock
	return r
}

// NewReplay returns a recorder that recomputes histograms and profiles
// from already-stamped events via Ingest — the consumer side used by
// traceview to rebuild statistics from an exported file. It interns
// continuation names in a table of its own (Recorder.Intern), so
// replaying a file never grows the process-wide one.
func NewReplay() *Recorder { return newRecorder(0, new(nameTable)) }

// initialRing is the ring's starting allocation; store doubles it up to
// the recorder's capacity, so short traced runs never pay for a full
// DefaultCapacity ring, and an idle machine's boot (a few events) for
// more than a few.
const initialRing = 8

func newRecorder(capacity int, names *nameTable) *Recorder {
	r := &Recorder{
		capacity: capacity,
		ring:     make([]Event, 0, min(initialRing, capacity)),
		names:    names,
	}
	for i := range r.Hist {
		r.Hist[i] = &Histogram{Name: Latency(i).String()}
	}
	return r
}

// Emit records one event of thread tid (0 for none) stamped with the
// current clock. Kernel emit sites call it only when TakesEvents holds.
func (r *Recorder) Emit(kind Kind, tid int, detail string) {
	r.emit(kind, tid, NoCont, detail, 0)
}

// TakesEvents reports whether kernel emit sites feed r: r is non-nil and
// has a reader for its events, a ring (Retains) or the profile report.
// Every emit site checks it before setting up the event's arguments.
func (r *Recorder) TakesEvents() bool { return r != nil && r.events }

// Retains reports whether r is non-nil and keeps events for Events and
// the trace export. Emit sites build detail strings only the ring reads
// when it does, and pass "" otherwise.
func (r *Recorder) Retains() bool { return r != nil && r.capacity > 0 }

// EmitArg is Emit with the kind-specific Arg field.
func (r *Recorder) EmitArg(kind Kind, tid int, detail string, arg int) {
	r.emit(kind, tid, NoCont, detail, arg)
}

// EmitCont is EmitArg for an event involving continuation cont, an id
// from Intern.
func (r *Recorder) EmitCont(kind Kind, tid int, cont ContID, detail string, arg int) {
	r.emit(kind, tid, cont, detail, arg)
}

// NameThreads installs the lookup a retaining recorder names each
// event's acting thread through; the kernel installs its own
// (core.Kernel.Observe). A recorder that retains nothing never calls it.
func (r *Recorder) NameThreads(lookup func(tid int) string) {
	r.threadName = lookup
	r.clearThreadNames()
}

// clearThreadNames empties the thread-name table onto firstNames.
func (r *Recorder) clearThreadNames() {
	clear(r.firstNames[:])
	r.threadNames = r.firstNames[:]
}

// parked is the thread name a retained control-transfer step carries
// when no thread was current: an interrupt taken on a parked processor.
const parked = "<parked>"

func (r *Recorder) emit(kind Kind, tid int, cont ContID, detail string, arg int) {
	var when machine.Time
	if r.clock != nil {
		when = r.clock.Now()
	}
	if r.capacity > 0 {
		r.store(&Event{Seq: r.seq, When: when, Kind: kind, TID: tid, Arg: arg,
			Thread: r.eventThread(kind, tid), Cont: r.contName(cont), Detail: detail})
	}
	r.seq++
	r.process(kind, tid, arg, when, cont)
}

// eventThread names a retained event's acting thread: through the
// installed lookup, once per thread, or parked for a thread-less
// control-transfer step; other thread-less events name none. An id the
// lookup cannot name is asked again at its next event.
func (r *Recorder) eventThread(kind Kind, tid int) string {
	switch {
	case tid == 0 && kind <= Interrupt:
		return parked
	case tid == 0 || r.threadName == nil:
		return ""
	case tid < len(r.threadNames) && r.threadNames[tid] != "":
		return r.threadNames[tid]
	}
	name := r.threadName(tid)
	if name != "" {
		if tid >= len(r.threadNames) {
			grown := make([]string, max(tid+1, 2*len(r.threadNames)))
			copy(grown, r.threadNames)
			r.threadNames = grown
		}
		r.threadNames[tid] = name
	}
	return name
}

// contName returns cont's name for a retained event: from its profile
// row when the recorder has one, which spares the name table's lock.
func (r *Recorder) contName(cont ContID) string {
	if int(cont) < len(r.conts) && r.conts[cont] != nil {
		return r.conts[cont].Name
	}
	return r.names.name(cont)
}

// Intern returns name's id in the recorder's continuation name table:
// the process-wide one (see the package-level Intern) for a live
// recorder, its own for a replay.
func (r *Recorder) Intern(name string) ContID { return r.names.intern(name) }

// Ingest feeds one already-stamped event through the statistics
// pipeline without storing it (replay mode); cont comes from r.Intern.
func (r *Recorder) Ingest(kind Kind, tid, arg int, when machine.Time, cont ContID) {
	r.process(kind, tid, arg, when, cont)
}

// store appends ev to the ring, evicting the oldest event once the ring
// holds capacity; the caller checks Retains.
func (r *Recorder) store(ev *Event) {
	if n := len(r.ring); n < r.capacity {
		if n == cap(r.ring) {
			// Grow by doubling, clamped so a full ring holds exactly
			// capacity events.
			grown := make([]Event, n, min(2*n, r.capacity))
			copy(grown, r.ring)
			r.ring = grown
		}
		r.ring = append(r.ring, *ev)
		return
	}
	r.ring[r.head] = *ev
	r.head = (r.head + 1) % r.capacity
	r.Dropped++
}

// process updates the online statistics. Every rule here is also applied
// by replay, so traceview recomputes the same tables from an export.
func (r *Recorder) process(kind Kind, tid, arg int, when machine.Time, cont ContID) {
	r.KindCounts[kind]++
	switch kind {
	case ThreadBlocked:
		if cont != NoCont {
			r.prof(cont).Blocks++
		}
		if l := r.latFor(tid); l != nil {
			if arg == 1 {
				// Yield: the thread never left the runnable state.
				l.runnableAt, l.blockedAt = opened(when), 0
			} else {
				l.blockedAt, l.runnableAt = opened(when), 0
			}
		}
	case Wakeup:
		if l := r.latFor(tid); l != nil {
			r.closeLat(LatBlockToWakeup, &l.blockedAt, when)
			l.runnableAt = opened(when)
		}
	case Dispatch:
		r.noteRunning(tid, when)
	case StackHandoff:
		if cont != NoCont {
			r.prof(cont).Handoffs++
		}
		// The stack's tenure on the old thread ends; a new one starts.
		if l := r.latAt(arg); l != nil {
			r.closeLat(LatStackLifetime, &l.stackSince, when)
		}
		if l := r.latFor(tid); l != nil {
			l.stackSince = opened(when)
		}
		r.noteRunning(tid, when)
	case StackAttach:
		if l := r.latFor(tid); l != nil {
			l.stackSince = opened(when)
		}
	case StackDetach:
		if l := r.latAt(tid); l != nil {
			r.closeLat(LatStackLifetime, &l.stackSince, when)
		}
	case Recognition:
		if cont != NoCont {
			r.prof(cont).RecognitionHits++
		}
	case RecognitionMiss:
		if cont != NoCont {
			r.prof(cont).RecognitionMisses++
		}
	case ContinuationCall:
		if cont != NoCont {
			r.prof(cont).Calls++
		}
	case RPCStart:
		if l := r.latFor(tid); l != nil {
			l.rpcStart = opened(when)
		}
	case RPCEnd:
		if l := r.latAt(tid); l != nil {
			r.closeLat(LatRPCRoundTrip, &l.rpcStart, when)
		}
	}
}

// noteRunning marks a thread as running at when, closing out whichever
// latency interval was open. A handoff target goes straight from blocked
// to running: its wait ends here and its dispatch latency is zero.
func (r *Recorder) noteRunning(tid int, when machine.Time) {
	l := r.latAt(tid)
	if l == nil || r.closeLat(LatDispatch, &l.runnableAt, when) {
		return
	}
	if r.closeLat(LatBlockToWakeup, &l.blockedAt, when) {
		r.Hist[LatDispatch].Observe(0)
	}
}

// prof returns continuation cont's profile row, creating it on first
// use.
func (r *Recorder) prof(cont ContID) *ContProfile {
	if n := int(cont) + 1 - len(r.conts); n > 0 {
		r.conts = append(r.conts, make([]*ContProfile, n)...)
	}
	c := r.conts[cont]
	if c == nil {
		c = &ContProfile{Name: r.names.name(cont)}
		r.conts[cont] = c
	}
	return c
}

// Events returns the retained events in emit order.
func (r *Recorder) Events() []Event {
	if len(r.ring) < r.capacity || r.head == 0 {
		return append([]Event(nil), r.ring...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.ring) }

// Profiles returns the continuation profiles sorted by name, so every
// report built on them is deterministic.
func (r *Recorder) Profiles() []*ContProfile {
	out := make([]*ContProfile, 0, len(r.conts))
	for _, c := range r.conts {
		if c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Profile returns the profile for one continuation name, nil if never
// seen.
func (r *Recorder) Profile(name string) *ContProfile {
	for _, c := range r.conts {
		if c != nil && c.Name == name {
			return c
		}
	}
	return nil
}

// Service returns (creating on first use) the named service-level
// histogram. Distributed-service workloads observe per-tier request
// latencies into these ("frontend", "cache.fetch", "kv.op"), so tail
// latency under fault plans comes out of the same report machinery as
// the kernel's own histograms.
func (r *Recorder) Service(name string) *Histogram {
	if r.svc == nil {
		r.svc = make(map[string]*Histogram)
	}
	h, ok := r.svc[name]
	if !ok {
		h = &Histogram{Name: name}
		r.svc[name] = h
	}
	return h
}

// ServiceHistograms returns the service-level histograms sorted by name
// (deterministic report order); empty when no workload observed any.
func (r *Recorder) ServiceHistograms() []*Histogram {
	if len(r.svc) == 0 {
		return nil
	}
	out := make([]*Histogram, 0, len(r.svc))
	for _, h := range r.svc {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reset discards all retained events and recorded statistics, keeping
// the recorder attached.
func (r *Recorder) Reset() {
	r.ring = r.ring[:0]
	r.head = 0
	r.seq = 0
	r.Dropped = 0
	r.KindCounts = [NumKinds]uint64{}
	for i := range r.Hist {
		r.Hist[i] = &Histogram{Name: Latency(i).String()}
	}
	r.conts = nil
	r.svc = nil
	r.lat = nil
	r.spans = nil
	r.spanSalt = 0
	r.clearThreadNames()
	r.Census = Census{}
}

// Histogram counts values into power-of-two buckets of simulated clock
// ticks (nanoseconds): bucket 0 holds zero, bucket i holds
// [2^(i-1), 2^i).
type Histogram struct {
	Name    string
	Buckets [65]uint64
	Count   uint64
	Sum     uint64
	Min     uint64 // valid when Count > 0
	Max     uint64
}

// Observe adds one value.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the power-of-two
// buckets: it finds the bucket holding the q*Count-th sample and
// interpolates linearly within it, clamped to the observed min/max. The
// estimate is deterministic for a deterministic event stream, so p50/p99
// lines in reports survive the byte-identity diffs.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q*float64(h.Count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > h.Count {
		target = h.Count
	}
	var cum uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := BucketBounds(i)
			frac := float64(target-cum) / float64(n)
			v := uint64(float64(lo) + frac*float64(hi-lo))
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		cum += n
	}
	return h.Max
}

// Merge folds another histogram's samples into h (bucket-wise), so a
// report can aggregate the same tier across machines.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.Count == 0 {
		return
	}
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// BucketBounds returns bucket i's half-open range [lo, hi); the last
// bucket's hi is the maximum uint64.
func BucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	if i >= 64 {
		return 1 << 63, ^uint64(0)
	}
	return 1 << (i - 1), 1 << i
}
