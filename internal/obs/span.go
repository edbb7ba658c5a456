// Causal tracing: trace contexts minted deterministically from operation
// identity, spans recorded per machine, and head-based sampling.
//
// The paper's continuation duality — a blocked thread *is* its pending
// work — means every hop of a distributed operation is already a
// discrete, nameable event. A span makes the hop a unit of account:
// [Start, End) on the shared simulated timeline (cluster clocks advance
// in lockstep, so cross-machine intervals compare directly), tagged with
// the latency segment it explains. Context identifiers are mixed from
// stable integers (client id, op serial, per-machine mint counters), so
// two runs with the same seed — sequential or parallel — export
// byte-identical span sets; no rand, no wall clock.
package obs

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/machine"
)

// TraceContext identifies a position in one operation's causal tree: the
// operation (Trace), the current span (Span), and the span it hangs
// under (Parent, 0 at the root). The zero TraceContext means "not
// sampled" and every propagation site treats it as free to drop.
type TraceContext struct {
	Trace  uint64
	Span   uint64
	Parent uint64
}

// Sampled reports whether this context belongs to a sampled trace.
func (c TraceContext) Sampled() bool { return c.Trace != 0 }

// Seg classifies where a slice of an operation's latency went. The order
// is the critical-path arbitration priority: when two spans of equal
// depth cover the same instant, the higher segment wins (an election
// stall explains the time better than the retransmit it caused, which
// explains it better than the wire flight underneath).
type Seg int

const (
	// SegQueue is time not covered by any child span: the operation
	// existed but nothing was attributably happening — queueing and
	// scheduling at the originating tier. Root spans carry this segment
	// so the analyzer's residual lands here.
	SegQueue Seg = iota
	// SegService is request execution at some tier (cache fetch, KV
	// serve, replication round).
	SegService
	// SegWire is network transit, from the sender's transmit to the
	// receiver's port delivery (retransmission backoff included until a
	// SegRetry span claims it).
	SegWire
	// SegRetry is recovery overhead: reliable-layer retransmit backoff
	// and caller attempt timeouts that re-sent the request.
	SegRetry
	// SegElection is a caller stalled against a leaderless group: the
	// believed leader was declared dead and the operation waited out a
	// failover.
	SegElection

	NumSegs
)

func (s Seg) String() string {
	switch s {
	case SegQueue:
		return "queue"
	case SegService:
		return "service"
	case SegWire:
		return "wire"
	case SegRetry:
		return "retry"
	case SegElection:
		return "election"
	default:
		return "unknown"
	}
}

// SegFromString is the inverse of Seg.String, used when re-ingesting an
// exported trace. The second result is false for unknown names.
func SegFromString(s string) (Seg, bool) {
	for g := Seg(0); g < NumSegs; g++ {
		if g.String() == s {
			return g, true
		}
	}
	return 0, false
}

// Span is one recorded interval of one operation, complete at record
// time (the simulator knows both endpoints whenever it learns anything,
// so spans are recorded closed rather than opened and finished).
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64 // 0 for the operation's root span
	Name   string
	Seg    Seg
	// TID is the recording thread (0 when recorded from interrupt or
	// driver context).
	TID    int
	Detail string
	Start  machine.Time
	End    machine.Time
}

// Duration is the span's extent (0 for degenerate spans).
func (sp Span) Duration() machine.Duration {
	if sp.End <= sp.Start {
		return 0
	}
	return machine.Duration(sp.End - sp.Start)
}

// mix64 is the SplitMix64 finalizer: a cheap invertible mixer that turns
// structured integers (small ids, serial counters) into well-spread
// 64-bit identifiers. Deterministic by construction.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MintTraceID derives an operation's trace id from its identity: the
// issuing client's global index and the client's operation serial. Never
// returns 0 (the not-sampled sentinel).
func MintTraceID(client, op uint64) uint64 {
	id := mix64(client<<32 ^ op ^ 0x9e3779b97f4a7c15)
	if id == 0 {
		id = 1
	}
	return id
}

// MintSpanID derives a span id from its trace and a mint-site salt
// (machine index and per-recorder serial). Never returns 0.
func MintSpanID(trace, salt uint64) uint64 {
	id := mix64(trace ^ mix64(salt+0x632be59bd9b4e019))
	if id == 0 {
		id = 1
	}
	return id
}

// ParseSample parses a machsim-style "1/N" head-sampling spec: keep
// every trace whose hashed id falls in the 1-in-N class. "1/1" keeps
// everything. The numerator is fixed at 1 — rates like 3/7 have no
// deterministic hash-class reading.
func ParseSample(s string) (int, error) {
	num, den, ok := strings.Cut(s, "/")
	if !ok {
		return 0, fmt.Errorf("sample %q: want 1/N", s)
	}
	if num != "1" {
		return 0, fmt.Errorf("sample %q: numerator must be 1", s)
	}
	n, err := strconv.Atoi(den)
	if err != nil {
		return 0, fmt.Errorf("sample %q: bad denominator: %v", s, err)
	}
	if n < 1 {
		return 0, fmt.Errorf("sample %q: denominator must be >= 1", s)
	}
	return n, nil
}

// SetHost tags the recorder with its machine's cluster index. The index
// salts span-id minting (so ids never collide across machines) and
// becomes the pid of exported spans.
func (r *Recorder) SetHost(host int) { r.host = host }

// Host returns the machine index set by SetHost.
func (r *Recorder) Host() int {
	if r == nil {
		return 0
	}
	return r.host
}

// SetSpanSampling sets head-based sampling to 1-in-every: SampleTrace
// keeps only trace ids hashing into class 0 of every classes. every <= 1
// keeps all traces.
func (r *Recorder) SetSpanSampling(every int) {
	if every < 1 {
		every = 1
	}
	r.sampleEvery = uint64(every)
}

// SampleTrace decides, by hash of the trace id, whether a new trace is
// kept. The decision is a pure function of the id and the sampling rate,
// so every machine agrees on it without coordination — the head
// (minting) site decides and the zero context propagates the "no".
func (r *Recorder) SampleTrace(trace uint64) bool {
	if r == nil {
		return false
	}
	if r.sampleEvery <= 1 {
		return true
	}
	return mix64(trace)%r.sampleEvery == 0
}

// NextSpanID mints a fresh span id for trace, salted with this machine's
// index and a per-recorder serial. Calls happen in dispatch order, which
// the parallel driver already keeps byte-identical per machine, so the
// minted sequence is deterministic.
func (r *Recorder) NextSpanID(trace uint64) uint64 {
	r.spanSalt++
	return MintSpanID(trace, uint64(r.host)<<40|r.spanSalt)
}

// spanChunk is how many spans one chunk of a recorder's span store holds.
// A recorded span stays in its chunk: the store grows by adding chunks,
// never by copying the spans it holds.
const spanChunk = 256

// RecordSpan appends one completed span. Spans for unsampled traces
// (Trace 0) and nil recorders are dropped for free.
func (r *Recorder) RecordSpan(sp Span) {
	if r == nil || sp.Trace == 0 {
		return
	}
	n := len(r.spans)
	if n == 0 || len(r.spans[n-1]) == spanChunk {
		r.spans = append(r.spans, make([]Span, 0, spanChunk))
		n++
	}
	r.spans[n-1] = append(r.spans[n-1], sp)
}

// SpanChunks returns the recorded spans in record order, as consecutive
// chunks: every chunk but the last is full, and none is empty, so a
// recorder with no spans returns none. The chunks are the recorder's
// own; callers read the spans in place and must not mutate them.
func (r *Recorder) SpanChunks() [][]Span {
	if r == nil {
		return nil
	}
	return r.spans
}
