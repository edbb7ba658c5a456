// Package dev is the machine-independent device subsystem: device ports
// with open/read/write, per-device request queues, interrupt delivery on
// the current processor's stack, and the internal io_done kernel thread
// that runs deferred completion work.
//
// The paper's interrupt model motivates all of it. A device interrupt is
// taken in interrupt context on whatever stack the processor is using
// (core.TakeInterrupt asserts that no stack is ever allocated there); the
// handler only acknowledges the device, starts the next queued request,
// and posts a completion record. The heavyweight half of every completion
// runs later in the io_done thread, which is written in the §2.2
// tail-recursive continuation style. A thread blocked in device_read or
// device_write holds only its DeviceReadContinue/DeviceWriteContinue
// continuation — eligible for stack discard exactly like mach_msg — and
// when the io_done thread resumes it, it hands its own stack over and
// recognizes the device continuation, finishing the request inline
// (Mach 3.0's device_read → io_done pairing, the canonical continuation
// user alongside mach_msg_continue).
package dev

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Path costs, machine-independent work beyond the modeled interrupt
// entry/exit:
var (
	// devCallCost is the device_read/device_write syscall body: validate
	// arguments, look up the device port, build the io request.
	devCallCost = machine.Cost{Instrs: 70, Loads: 25, Stores: 12}
	// devOpenCost is the device_open name lookup.
	devOpenCost = machine.Cost{Instrs: 50, Loads: 18, Stores: 4}
	// intrHandlerCost is the interrupt handler body: acknowledge the
	// device, read its status, post the completion, start the next
	// request.
	intrHandlerCost = machine.Cost{Instrs: 90, Loads: 25, Stores: 18}
	// ioDoneCost is the io_done thread's per-completion bookkeeping.
	ioDoneCost = machine.Cost{Instrs: 60, Loads: 20, Stores: 12}
)

// Request is one queued device operation. The device services requests
// FIFO, one at a time; completion is split between the interrupt handler
// (cheap, on the current stack) and the io_done thread (deferred).
type Request struct {
	// Label names the operation for traces ("read", "page-in", ...).
	Label string
	// Bytes is the transfer size.
	Bytes int
	// Latency is the service time once the device starts the request;
	// zero means the device's default ServiceTime.
	Latency machine.Duration

	// Complete, when non-nil, runs in the io_done thread's context when
	// the completion is processed. It must not block or transfer control.
	Complete func(e *core.Env)

	// Waiter, when non-nil, is a thread blocked on this request. If it is
	// continuation-blocked with Expect, the io_done thread hands its stack
	// over and, on recognition, runs Inline (which transfers control) as
	// the waiter; otherwise the waiter is simply made runnable.
	Waiter *core.Thread
	Expect *core.Continuation
	Inline func(e *core.Env)

	// Err is the completion status: zero for success, or a Dev* code. The
	// io_done thread posts it to the waiter before resuming it.
	Err uint64

	// CanFail marks requests eligible for fault injection: user
	// device_read/device_write calls, whose callers see error codes and
	// retry. Kernel-internal requests (vm page-in/page-out) leave it
	// false — injecting there would be silently treated as success.
	CanFail bool

	// timeout is the armed I/O timeout (user I/O only); the completion
	// interrupt cancels it.
	timeout *machine.Event

	// deliver and pkt make this an rx completion (NIC.receive): io_done
	// hands pkt to deliver, the netmsg thread's packet handler, and
	// returns the completion to its subsystem's free list. recycled
	// marks a completion on that list; the DebugChecks guards read it.
	deliver  func(e *core.Env, pkt *Packet)
	pkt      *Packet
	recycled bool
}

// Device is one device: a request queue in front of a single server with
// a fixed service time, fed by Submit and drained by interrupts.
type Device struct {
	Name string
	Sub  *Subsystem

	// ServiceTime is the default per-request latency.
	ServiceTime machine.Duration

	// Port is the device port handed out by device_open (set once the IPC
	// substrate is attached).
	Port *ipc.Port

	queue    fifo[*Request]
	inflight *Request

	// Counters.
	Requests       uint64
	Interrupts     uint64
	QueueHighWater int
}

// QueueDepth reports the requests queued or in service right now.
func (d *Device) QueueDepth() int {
	n := d.queue.size()
	if d.inflight != nil {
		n++
	}
	return n
}

// Submit enqueues a request and starts the device if it is idle. Callable
// from thread context or dispatcher/interrupt context.
func (d *Device) Submit(r *Request) {
	if r.Latency == 0 {
		r.Latency = d.ServiceTime
	}
	d.Requests++
	d.queue.push(r)
	if depth := d.QueueDepth(); depth > d.QueueHighWater {
		d.QueueHighWater = depth
	}
	if d.inflight == nil {
		d.start()
	}
}

// start begins service on the next queued request; the completion arrives
// as a clock event that takes an interrupt. The fault plan may stretch
// the service time (a latency spike).
func (d *Device) start() {
	r := d.queue.pop()
	d.inflight = r
	latency := r.Latency + d.Sub.injectLatency(d, r)
	d.Sub.K.Clock.After(latency, d.Name+"-io", func() { d.complete(r) })
}

// complete is the device raising its interrupt: the handler runs in
// interrupt context on the current processor's stack, acknowledges the
// transfer, restarts the device, and defers the rest to the io_done
// thread. No stack is allocated anywhere on this path.
func (d *Device) complete(r *Request) {
	s := d.Sub
	s.K.TakeInterrupt(d.Name+" "+r.Label, func(e *core.Env) {
		e.Charge(intrHandlerCost)
		s.noteHandlerWork(intrHandlerCost)
		d.Interrupts++
		d.inflight = nil
		// Completion beat the I/O timeout: disarm it here, in the
		// interrupt handler, so a timeout scheduled for this same tick
		// (but sequenced later) is cleanly cancelled.
		if r.timeout != nil {
			s.K.Clock.Cancel(r.timeout)
		}
		s.injectCompletion(d, r)
		if d.queue.size() > 0 {
			d.start()
		}
		s.PostCompletion(r)
	})
}

// Subsystem is the per-machine device layer: the device registry, the
// completion queue, and the io_done internal kernel thread.
type Subsystem struct {
	K *core.Kernel

	// IoThread runs deferred completions; ContIoDone is its work-loop
	// continuation ("io_done_continue").
	IoThread   *core.Thread
	ContIoDone *core.Continuation

	// ContDeviceRead and ContDeviceWrite are what device_read/device_write
	// callers block with; the io_done thread recognizes them.
	ContDeviceRead  *core.Continuation
	ContDeviceWrite *core.Continuation

	devices []*Device
	byName  map[string]*Device
	nics    []*NIC

	// dirtyNICs lists, in first-buffer order, the NICs holding deferred
	// deliveries from the current cluster round; the barrier flush drains
	// exactly these instead of scanning every NIC of every machine. Each
	// NIC appends itself (at most once per round, via its dirty mark) from
	// its own machine's context, so the list needs no locking under the
	// parallel driver.
	dirtyNICs []*NIC

	completions fifo[*Request]

	// rxFree holds rx completions io_done has processed, for the NICs'
	// next arrivals to reuse.
	rxFree []*Request

	// HandlerCost accumulates all work charged in interrupt context
	// (entry + handler body + exit), the "handler cycles" counter.
	HandlerCost machine.Cost

	// IoDoneHandoffs counts completions delivered by handing the io_done
	// thread's stack straight to the waiter.
	IoDoneHandoffs uint64

	// Reads and Writes count device_read/device_write calls.
	Reads  uint64
	Writes uint64

	// Fault is the installed fault plan (nil injects nothing).
	Fault *fault.Plan

	// IoTimeout, when nonzero, bounds each user I/O request from submit
	// to completion; expiry returns DevTimedOut (after retries).
	// IoMaxRetries and IoRetryBackoff shape the bounded retry: attempt n
	// parks for IoRetryBackoff << (n-1) before resubmitting.
	IoTimeout      machine.Duration
	IoMaxRetries   int
	IoRetryBackoff machine.Duration

	// pendingRetry tracks each thread's armed backoff callout so abort
	// can cancel it.
	pendingRetry map[int]*machine.Event

	// Recovery counters.
	IoTimeouts uint64 // I/O timeouts expired
	IoRetries  uint64 // requests resubmitted after a failure or timeout
	IoFailures uint64 // injected request failures
}

// NewSubsystem creates the device layer and its io_done thread (created
// blocked; it wakes when the first completion is posted).
func NewSubsystem(k *core.Kernel) *Subsystem {
	s := &Subsystem{
		K:              k,
		byName:         make(map[string]*Device),
		pendingRetry:   make(map[int]*machine.Event),
		IoMaxRetries:   3,
		IoRetryBackoff: machine.Duration(500 * 1000), // 500 µs
	}
	k.Invariants = append(k.Invariants, s.checkInvariants)
	s.ContIoDone = core.NewContinuation("io_done_continue", s.ioLoop)
	s.ContDeviceRead = core.NewContinuation("device_read_continue", s.deviceReadContinue)
	s.ContDeviceWrite = core.NewContinuation("device_write_continue", s.deviceWriteContinue)
	s.IoThread = k.NewThread(core.ThreadSpec{
		Name:     "io-done",
		SpaceID:  0,
		Internal: true,
		Priority: 29,
		Start:    s.ContIoDone,
	})
	return s
}

// NewDevice registers a device with a default service time.
func (s *Subsystem) NewDevice(name string, service machine.Duration) *Device {
	if s.byName[name] != nil {
		panic(fmt.Sprintf("dev: duplicate device %q", name))
	}
	d := &Device{Name: name, Sub: s, ServiceTime: service}
	s.devices = append(s.devices, d)
	s.byName[name] = d
	return d
}

// Devices returns the registered devices in creation order.
func (s *Subsystem) Devices() []*Device { return s.devices }

// AttachPorts creates each device's device port; called once the IPC
// substrate exists.
func (s *Subsystem) AttachPorts(x *ipc.IPC) {
	for _, d := range s.devices {
		if d.Port == nil {
			d.Port = x.NewPort("dev/" + d.Name)
		}
	}
}

// Open is device_open: look up a device by name in the current thread's
// kernel context and return it (its Port is the device port the caller
// holds). Does not transfer control.
func (s *Subsystem) Open(e *core.Env, name string) *Device {
	e.Charge(devOpenCost)
	d := s.byName[name]
	if d == nil {
		panic(fmt.Sprintf("dev: open of unknown device %q", name))
	}
	return d
}

// noteHandlerWork accumulates interrupt-context work, including the
// modeled entry/exit register handling.
func (s *Subsystem) noteHandlerWork(body machine.Cost) {
	s.HandlerCost.Add(s.K.Costs.InterruptEntry)
	s.HandlerCost.Add(body)
	s.HandlerCost.Add(s.K.Costs.InterruptExit)
}

// PostCompletion queues a finished request for the io_done thread and
// wakes it. Called from interrupt context.
func (s *Subsystem) PostCompletion(r *Request) {
	if s.K.DebugChecks && r.recycled {
		panic("dev: rx completion posted after it was recycled")
	}
	s.completions.push(r)
	if s.IoThread.State() == core.StateWaiting {
		s.K.Setrun(s.IoThread)
	}
}

// rxCompletion returns an rx completion handing pkt to deliver, reused
// from the free list that io_done refills once a completion's packet is
// handed over.
func (s *Subsystem) rxCompletion(deliver func(*core.Env, *Packet), pkt *Packet) *Request {
	var r *Request
	if k := len(s.rxFree); k > 0 {
		r = s.rxFree[k-1]
		s.rxFree = s.rxFree[:k-1]
	} else {
		r = new(Request)
	}
	*r = Request{Label: "nic-rx", Bytes: pkt.Size, deliver: deliver, pkt: pkt}
	return r
}

// ioLoop is the io_done thread's work loop, §2.2 style: drain the
// completion queue, then block with this same continuation. When a
// completion's waiter is continuation-blocked the loop ends early in a
// stack handoff — the io_done thread's stack becomes the waiter's, and
// recognition of the device continuation finishes the request inline.
// Transfers control.
func (s *Subsystem) ioLoop(e *core.Env) {
	k := s.K
	for s.completions.size() > 0 {
		r := s.completions.pop()
		if k.DebugChecks && r.recycled {
			panic("dev: rx completion processed after it was recycled")
		}
		e.Charge(ioDoneCost)
		if r.deliver != nil {
			// An rx completion has no waiter: hand the packet over and
			// recycle the completion.
			r.deliver(e, r.pkt)
			*r = Request{recycled: true}
			s.rxFree = append(s.rxFree, r)
			continue
		}
		if r.Complete != nil {
			r.Complete(e)
		}
		w := r.Waiter
		if w == nil {
			// Orphaned completion: the waiter timed out or was aborted
			// while the transfer was in flight.
			continue
		}
		if r.Err != 0 {
			// Post the failure; the waiter's device continuation sees it
			// and retries or returns the error.
			k.PostWaitResult(w, r.Err)
		}
		if r.Expect != nil && w.BlockedWith(r.Expect) && k.CanHandoffTo(w) {
			t := e.Cur()
			if s.completions.size() > 0 {
				// More completions pending: stay runnable and continue the
				// loop when rescheduled.
				e.K.SetState(t, core.StateRunnable)
			} else {
				e.K.SetState(t, core.StateWaiting)
				t.WaitLabel = "io_done: idle"
			}
			s.IoDoneHandoffs++
			k.HandoffTo(e, stats.BlockInternal, s.ContIoDone, w, r.Expect, func(e *core.Env) {
				k.Stats.IoDoneRecognitions++
				r.Inline(e)
				if !e.Transferred() {
					panic("dev: io_done inline completion returned")
				}
			})
			return
		}
		if w.State() == core.StateWaiting {
			k.Setrun(w)
		}
	}
	t := e.Cur()
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "io_done: idle"
	k.Block(e, stats.BlockInternal, s.ContIoDone, nil, 256, "io-done-wait")
}

// DeviceRead is the device_read syscall body: submit a read request and
// block with DeviceReadContinue until the transfer interrupt and the
// io_done thread complete it. The continuation copies the data out and
// returns the byte count. Transfers control.
func (s *Subsystem) DeviceRead(e *core.Env, d *Device, bytes int) {
	s.Reads++
	e.Charge(devCallCost)
	t := e.Cur()
	t.Scratch.PutWord(0, uint32(bytes))
	t.Scratch.PutWord(1, 0) // attempt count, for the retry path
	t.Scratch.SetRef(d)
	s.submitIO(t, d, "read", bytes, s.ContDeviceRead,
		func(e2 *core.Env) { s.deviceReadContinue(e2) })
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "device_read: " + d.Name
	s.K.Block(e, stats.BlockDeviceIO, s.ContDeviceRead, nil, 192, "device-read")
}

// deviceReadContinue resumes a device_read once its data is in: copy the
// buffer out to the caller and return the count. On a posted failure or
// timeout the retry path takes over instead. Transfers control.
func (s *Subsystem) deviceReadContinue(e *core.Env) {
	t := e.Cur()
	if code, ok := t.TakeWaitResult(); ok {
		s.retryOrFail(e, code, s.ContDeviceRead)
		return
	}
	n := int(t.Scratch.Word(0))
	e.Charge(machine.CopyBytes(n))
	s.K.ThreadSyscallReturn(e, uint64(n))
}

// DeviceWrite is the device_write syscall body: copy the caller's buffer
// in, submit the write, and block with DeviceWriteContinue until the
// device has taken it. Transfers control.
func (s *Subsystem) DeviceWrite(e *core.Env, d *Device, bytes int) {
	s.Writes++
	e.Charge(devCallCost.Plus(machine.CopyBytes(bytes)))
	t := e.Cur()
	t.Scratch.PutWord(0, uint32(bytes))
	t.Scratch.PutWord(1, 0) // attempt count, for the retry path
	t.Scratch.SetRef(d)
	s.submitIO(t, d, "write", bytes, s.ContDeviceWrite,
		func(e2 *core.Env) { s.deviceWriteContinue(e2) })
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "device_write: " + d.Name
	s.K.Block(e, stats.BlockDeviceIO, s.ContDeviceWrite, nil, 192, "device-write")
}

// deviceWriteContinue resumes a device_write: the data left with the
// device, return the count — or, on a posted failure or timeout, hand
// over to the retry path. Transfers control.
func (s *Subsystem) deviceWriteContinue(e *core.Env) {
	t := e.Cur()
	if code, ok := t.TakeWaitResult(); ok {
		s.retryOrFail(e, code, s.ContDeviceWrite)
		return
	}
	s.K.ThreadSyscallReturn(e, uint64(t.Scratch.Word(0)))
}
