// Package svc hosts real distributed services that run as workload
// threads on simulated machines: a replicated sharded key/value store
// with epoch-numbered leases, fencing tokens and heartbeat-driven leader
// election (riding the netmsg membership layer), and a cache tier for
// the multi-tier service-graph workload.
//
// The package is the paper's thesis exercised at service granularity:
// every server here is an ordinary continuation-blocked thread — a
// replica waiting for client traffic, a replication ack, or its own
// lease-renewal tick holds no kernel stack — and every cross-machine
// interaction is a mach_msg through the netmsg proxy ports, so crashing
// a shard primary mid-storm stresses exactly the recovery machinery
// (incarnation stamps, stale drops, warm reboot) PR 5 built, plus the
// service-level analogue this package adds: lease fencing, which rejects
// a deposed incarnation's epoch tokens even after the netmsg layer has
// let its packets through.
//
// Everything is deterministic: behavior is driven by the simulated
// clock and arriving messages only, snapshots are sorted before they go
// on the wire, and no map iteration influences execution order — the
// same seed produces byte-identical runs under the sequential and
// parallel cluster drivers.
package svc

// Op is a client-visible KV operation.
type Op int

const (
	OpGet Op = iota
	OpPut
)

func (o Op) String() string {
	if o == OpPut {
		return "put"
	}
	return "get"
}

// MsgKind discriminates the service protocol messages carried in
// ipc.Message bodies (and therefore in netmsg packets).
type MsgKind int

const (
	// MsgClientOp is a client Get/Put aimed at the leader of the key's
	// shard group.
	MsgClientOp MsgKind = iota
	// MsgReply answers a client op: OK with a value, or NotLeader with a
	// leader hint.
	MsgReply
	// MsgReplicate carries one applied write from a leader to its
	// follower, stamped with the leader's epoch (the fencing token).
	MsgReplicate
	// MsgRepOK acknowledges a replicated write; the leader acks the
	// client only after it arrives.
	MsgRepOK
	// MsgRepReject refuses a replicate/renew whose epoch is stale — the
	// fencing rejection that deposes an old leader.
	MsgRepReject
	// MsgRenew is the leader's periodic lease renewal; its arrival also
	// feeds the netmsg membership layer as a piggybacked heartbeat.
	MsgRenew
	// MsgRejoin is a rebooted (or deposed) replica's probe: it presents
	// its durable epoch table and asks for grants plus a state sync.
	MsgRejoin
	// MsgRejoinOK answers with per-group grants/rejections and a sorted
	// snapshot of the store.
	MsgRejoinOK
	// MsgDone tells a replica that one client machine has completed all
	// of its operations; replicas exit when every client machine is done.
	MsgDone
	// MsgCacheReq is a frontend request to the cache tier (read or
	// write-through); MsgCacheReply answers it.
	MsgCacheReq
	MsgCacheReply
)

func (k MsgKind) String() string {
	switch k {
	case MsgClientOp:
		return "client-op"
	case MsgReply:
		return "reply"
	case MsgReplicate:
		return "replicate"
	case MsgRepOK:
		return "rep-ok"
	case MsgRepReject:
		return "rep-reject"
	case MsgRenew:
		return "renew"
	case MsgRejoin:
		return "rejoin"
	case MsgRejoinOK:
		return "rejoin-ok"
	case MsgDone:
		return "done"
	case MsgCacheReq:
		return "cache-req"
	case MsgCacheReply:
		return "cache-reply"
	default:
		return "unknown"
	}
}

// Version orders writes across leader changes: epochs dominate, then
// per-group replication sequence numbers. Applying a write only when its
// version exceeds the stored one makes replication and snapshot install
// idempotent and order-independent (the reliable netmsg protocol
// retransmits but does not guarantee order).
type Version struct {
	Epoch uint64
	Seq   uint64
}

// Less reports strict version order.
func (v Version) Less(o Version) bool {
	if v.Epoch != o.Epoch {
		return v.Epoch < o.Epoch
	}
	return v.Seq < o.Seq
}

// Entry is one stored key/value with the version that wrote it.
type Entry struct {
	Key uint64
	Val uint64
	Ver Version
}

// GroupGrant is one group's verdict in a MsgRejoinOK: either a grant
// (the rejoiner's durable leadership resumes under a bumped epoch) or a
// fencing rejection (an election superseded it; the current epoch and
// leader are returned so the rejoiner can fall in line).
type GroupGrant struct {
	Group    int
	Epoch    uint64
	Leader   int
	Rejected bool
}

// Wire is the one message body every service exchange uses. It is
// immutable once sent: slices are built fresh for each transmission and
// never retained by the sender nor mutated by the receiver, which keeps
// the parallel cluster driver race-free.
type Wire struct {
	Kind  MsgKind
	From  int    // sender's replica rank (replica traffic)
	OpID  uint32 // client op id, echoed in replies
	Group int
	Shard int

	Op       Op
	Key, Val uint64
	Found    bool

	// Epoch is the fencing token on replicate/renew/rejoin traffic and
	// the current-epoch hint on rejections; Seq the replication sequence.
	Epoch uint64
	Seq   uint64

	// Leader is the responder's leader hint (replica rank).
	Leader int
	// NotLeader marks a MsgReply refusing a client op.
	NotLeader bool

	// Expired and Rejected type a refused reply (overload control): the
	// tier shed the op before applying anything — Expired because its
	// absolute deadline had already passed on dequeue, Rejected because
	// admission was refused (CoDel sojourn over target). Both are
	// definite no-ops, which is what lets the client record them as
	// such for the linearizability checker.
	Expired  bool
	Rejected bool

	// Rejoin is the state a MsgRejoin or MsgRejoinOK carries; nil on
	// every other message, so client ops, replies, replicates and
	// renewals carry none of its five slices.
	Rejoin *Rejoin
}

// Rejoin is a rejoin exchange's payload. Epochs/Leaders are the
// rejoiner's durable lease view (MsgRejoin); Grants answer it
// (MsgRejoinOK). Both directions carry a store snapshot, and Seqs the
// per-group replication sequence high-water so a re-granted leader
// continues numbering above every write it may have missed.
type Rejoin struct {
	Epochs  []uint64
	Leaders []int
	Grants  []GroupGrant
	Snap    []Entry
	Seqs    []uint64
}
