package workload

import (
	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/vm"
)

// OpWeights gives the relative frequency of each operation a client
// issues between CPU bursts.
type OpWeights struct {
	RPC       int // mach_msg RPC to the service port
	Fault     int // user-level page fault on a fresh page
	Exception int // user-level exception to the exception server
	Yield     int // voluntary thread_switch
}

func (w OpWeights) total() int { return w.RPC + w.Fault + w.Exception + w.Yield }

// ClientSpec parameterizes a population of identical client threads.
type ClientSpec struct {
	// Name labels the client threads.
	Name string
	// Count is how many threads run this spec.
	Count int
	// MeanBurstCycles is the average user CPU between operations.
	MeanBurstCycles uint64
	// Weights picks the operation mix.
	Weights OpWeights
	// MsgBytes is the request size (HeaderBytes if zero).
	MsgBytes int
	// KernelFaultPer10k, AllocPer10k and LockPer10k inject the rare
	// process-model waits (kernel-mode faults, memory allocation, lock
	// acquisition — §3.2) into this client's system calls.
	KernelFaultPer10k int
	AllocPer10k       int
	LockPer10k        int
	// LongBurstPer10k replaces a burst with a LongBurstCycles one at the
	// given rate; bursts longer than the quantum are what produce
	// involuntary preemptions when other work is queued.
	LongBurstPer10k int
	LongBurstCycles uint64
	// Priority of the client threads.
	Priority int
}

// Client is one client thread's program: alternate a CPU burst with a
// randomly chosen operation, forever (the enclosing run stops at a
// simulated-time deadline).
type Client struct {
	sys  *kern.System
	spec ClientSpec
	rng  *RNG

	// nextFaultPage walks a private page range so that fault operations
	// touch fresh (non-resident) pages.
	nextFaultPage uint64

	// burstNext alternates burst/operation.
	burstNext bool

	// rpcAct is the plain mach_msg RPC to the service port, built once;
	// a call that draws one of the rare process-model waits wraps its
	// Invoke.
	rpcAct core.Action

	// Ops counts operations issued by kind.
	RPCs, Faults, Exceptions, Yields uint64
}

// NewClient builds a client program. reply must be a dedicated reply
// port for this thread.
func NewClient(sys *kern.System, spec ClientSpec, service, reply *ipc.Port, rng *RNG) *Client {
	if spec.Weights.total() <= 0 {
		panic("workload: client with no operations")
	}
	c := &Client{
		sys:           sys,
		spec:          spec,
		rng:           rng,
		nextFaultPage: 0x100000 + rng.Uint64n(1<<20),
		burstNext:     true,
	}
	c.rpcAct = core.Syscall("mach_msg(rpc)", func(e *core.Env) {
		req := sys.IPC.NewMessage(7, spec.MsgBytes, nil, reply)
		sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send:        req,
			SendTo:      service,
			ReceiveFrom: reply,
		})
	})
	return c
}

// Next implements core.UserProgram.
func (c *Client) Next(e *core.Env, t *core.Thread) core.Action {
	// Consume and recycle any reply so the mailbox slot does not
	// accumulate.
	c.sys.IPC.FreeMessage(c.sys.IPC.Received(t))

	if c.burstNext {
		c.burstNext = false
		mean := c.spec.MeanBurstCycles
		if c.rng.Hit(c.spec.LongBurstPer10k) {
			mean = c.spec.LongBurstCycles
		}
		if mean > 0 {
			return core.RunFor(c.rng.Burst(mean))
		}
	}
	c.burstNext = true

	w := c.spec.Weights
	r := c.rng.Intn(w.total())
	switch {
	case r < w.RPC:
		c.RPCs++
		return c.rpcAction()
	case r < w.RPC+w.Fault:
		c.Faults++
		c.nextFaultPage++
		return core.Action{Kind: core.ActFault, Addr: c.nextFaultPage << vm.PageShift}
	case r < w.RPC+w.Fault+w.Exception:
		c.Exceptions++
		return core.Action{Kind: core.ActException, Code: int(c.Exceptions)}
	default:
		c.Yields++
		return core.Action{Kind: core.ActYield}
	}
}

// rpcAction returns the mach_msg syscall, wrapped in the rare
// process-model waits this call draws on the way in.
func (c *Client) rpcAction() core.Action {
	kfault := c.rng.Hit(c.spec.KernelFaultPer10k)
	alloc := c.rng.Hit(c.spec.AllocPer10k)
	lock := c.rng.Hit(c.spec.LockPer10k)
	if !kfault && !alloc && !lock {
		return c.rpcAct
	}
	return core.Syscall(c.rpcAct.Name, func(e *core.Env) {
		step := c.rpcAct.Invoke
		if lock {
			inner := step
			step = func(e *core.Env) { c.sys.LockWait(e, 128, inner) }
		}
		if alloc {
			inner := step
			step = func(e *core.Env) { c.sys.AllocWait(e, 192, inner) }
		}
		if kfault {
			inner := step
			step = func(e *core.Env) { c.sys.VM.KernelFault(e, 256, inner) }
		}
		step(e)
	})
}
