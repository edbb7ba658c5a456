// Package vm is the virtual-memory substrate of the simulated kernel:
// per-task address spaces, a resident-page set over a fixed pool of
// physical frames, a simulated paging disk, and a pageout daemon (an
// internal kernel thread written in the paper's §2.2 tail-recursive
// continuation style).
//
// Fault handling follows §2.5:
//
//   - a user-level fault on a non-resident page blocks the faulting
//     thread with a continuation that maps the new page and resumes the
//     thread at user level, so faulting threads consume no kernel stacks;
//
//   - a kernel-mode fault preserves the thread's kernel state and stack —
//     the process-model safety net — because a thread can fault anywhere
//     in the kernel and generating a continuation there would be
//     impractical.
package vm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/machine"
	"repro/internal/stats"
)

// PageSize is the machine page size (both evaluation machines use 4 KB).
const PageSize = 4096

// PageShift converts addresses to page numbers.
const PageShift = 12

// DefaultDiskLatency is the simulated page-in latency: a late-1980s SCSI
// disk needs on the order of 20 ms for a seek plus a page transfer.
const DefaultDiskLatency = machine.Duration(20 * 1000 * 1000)

// faultSoftCost is the machine-independent work of looking up a fault:
// validating the address, walking the map entries, checking protections.
var faultSoftCost = machine.Cost{Instrs: 120, Loads: 30, Stores: 8}

// faultMapCost is the work of entering a new page into the pmap.
var faultMapCost = machine.Cost{Instrs: 90, Loads: 15, Stores: 20}

// evictCost is the per-page work of the pageout daemon.
var evictCost = machine.Cost{Instrs: 150, Loads: 40, Stores: 25}

// Space is one task's address space: the set of resident virtual pages.
// The simulator does not store page contents; residency, sharing and
// mapping cost are what the paper's paths exercise. The entries are held
// by value, so mapping a page allocates nothing beyond the map's own
// growth.
type Space struct {
	ID       int
	resident map[uint64]pageEntry
}

// Resident reports whether the page holding addr is mapped.
func (s *Space) Resident(addr uint64) bool {
	_, ok := s.resident[addr>>PageShift]
	return ok
}

// ResidentPages counts mapped pages.
func (s *Space) ResidentPages() int { return len(s.resident) }

// pageRef identifies one resident page for the eviction queue.
type pageRef struct {
	space *Space
	page  uint64
}

// VM is the virtual-memory subsystem.
type VM struct {
	K *core.Kernel

	// TotalFrames and FreeFrames describe the physical page pool.
	TotalFrames int
	FreeFrames  int

	// DiskLatency is the simulated page-in/page-out time.
	DiskLatency machine.Duration

	// Disk, when set, is the paging disk in the device subsystem: page-ins
	// become queued device requests completed by a disk interrupt and the
	// io_done thread, so concurrent faulters contend for the one spindle.
	// When nil the legacy flat-latency path is used (each page-in is an
	// independent timer), preserving the pre-device behavior for
	// comparison.
	Disk *dev.Device

	// LowWater and HighWater bound the pageout daemon: it wakes below
	// LowWater free frames and evicts until HighWater are free.
	LowWater  int
	HighWater int

	spaces map[int]*Space

	// fifo is the eviction queue of resident pages, oldest first.
	fifo []pageRef

	// waiters are threads blocked until a frame frees up.
	waiters []*core.Thread

	// Daemon is the pageout kernel thread.
	Daemon *core.Thread

	// ContFaultContinue is the continuation a faulting thread blocks
	// with while its page comes in from disk; exported so tests and
	// recognition sites can compare against it.
	ContFaultContinue *core.Continuation

	// ContFaultRetry re-runs the fault after waiting for a free frame.
	ContFaultRetry *core.Continuation

	contPageout *core.Continuation

	// pageInFn is pageIn's method value, bound once: the flat-latency
	// page-in timer's action. faultContinueFn is faultContinue's, every
	// disk page-in's inline completion.
	pageInFn        func(any)
	faultContinueFn func(*core.Env)

	// diskReads holds the paging disk's finished read records for the
	// next page-ins to reuse (newDiskRead).
	diskReads []*diskRead

	// Counters.
	FastFaults   uint64 // page already resident
	DiskFaults   uint64 // waited for the disk
	FrameWaits   uint64 // waited for a free frame
	KernelFaults uint64 // kernel-mode faults (process model)
	Evictions    uint64
	CowShares    uint64 // pages mapped copy-on-write
	CowBreaks    uint64 // write faults that resolved a shared page
}

// blockReasonFault names the Table 1 row page-fault blocks land in.
const blockReasonFault = stats.BlockPageFault

// Config sizes the VM subsystem.
type Config struct {
	// Frames is the physical page pool size (default 2048 = 8 MB).
	Frames int
	// DiskLatency overrides DefaultDiskLatency when nonzero.
	DiskLatency machine.Duration
	// Disk routes page-ins and page-outs through a device-subsystem disk
	// (see VM.Disk); nil keeps the legacy flat-latency path.
	Disk *dev.Device
}

// New creates the VM subsystem, installs its fault handler on the kernel,
// and creates (but does not start) the pageout daemon. Call StartDaemon
// once the scheduler is in place.
func New(k *core.Kernel, cfg Config) *VM {
	frames := cfg.Frames
	if frames <= 0 {
		frames = 2048
	}
	lat := cfg.DiskLatency
	if lat == 0 {
		lat = DefaultDiskLatency
	}
	v := &VM{
		K:           k,
		TotalFrames: frames,
		FreeFrames:  frames,
		DiskLatency: lat,
		Disk:        cfg.Disk,
		LowWater:    frames / 16,
		HighWater:   frames / 8,
		spaces:      make(map[int]*Space),
	}
	if v.LowWater < 2 {
		v.LowWater = 2
	}
	if v.HighWater <= v.LowWater {
		v.HighWater = v.LowWater + 2
	}

	v.ContFaultContinue = core.NewContinuation("vm_fault_continue", v.faultContinue)
	v.ContFaultRetry = core.NewContinuation("vm_fault_retry", v.faultRetry)
	v.contPageout = core.NewContinuation("pageout_continue", v.pageoutLoop)

	v.pageInFn = v.pageIn
	v.faultContinueFn = v.faultContinue
	k.HandleFault = v.HandleFault
	v.Daemon = k.NewThread(core.ThreadSpec{
		Name:     core.NameOf("pageout"),
		SpaceID:  0,
		Internal: true,
		Priority: 30,
		Start:    v.contPageout,
	})
	return v
}

// NewSpace registers an address space for a task.
func (v *VM) NewSpace(id int) *Space {
	if _, dup := v.spaces[id]; dup {
		panic(fmt.Sprintf("vm: duplicate space %d", id))
	}
	s := &Space{ID: id, resident: make(map[uint64]pageEntry)}
	v.spaces[id] = s
	return s
}

// SpaceOf returns the space a thread runs in.
func (v *VM) SpaceOf(t *core.Thread) *Space {
	s := v.spaces[t.SpaceID]
	if s == nil {
		panic(fmt.Sprintf("vm: %v runs in unregistered space %d", t, t.SpaceID))
	}
	return s
}

// HandleFault services a user-level page fault on the current thread.
// Installed as the kernel's fault handler; transfers control.
func (v *VM) HandleFault(e *core.Env, addr uint64, write bool) {
	e.Charge(faultSoftCost)
	t := e.Cur()
	sp := v.SpaceOf(t)
	if entry, ok := sp.resident[addr>>PageShift]; ok {
		if write && entry.shared != nil {
			// A store to a copy-on-write page: resolve the sharing.
			v.breakCow(e, sp, addr>>PageShift, entry)
			return
		}
		// The page arrived while we trapped (or the program re-touched a
		// mapped page): nothing to wait for.
		v.FastFaults++
		v.K.ThreadExceptionReturn(e)
		return
	}
	v.fault(e, addr, write)
}

// fault starts a page-in for addr, blocking the current thread. Also the
// body of the retry continuation. Transfers control.
func (v *VM) fault(e *core.Env, addr uint64, write bool) {
	t := e.Cur()
	page := addr >> PageShift
	wflag := uint32(0)
	if write {
		wflag = 1
	}
	if v.FreeFrames == 0 {
		// Wait for the pageout daemon to free a frame, then retry the
		// whole fault.
		v.FrameWaits++
		v.waiters = append(v.waiters, t)
		v.wakeDaemon()
		t.Scratch.PutWord(0, uint32(page))
		t.Scratch.PutWord(1, wflag)
		e.K.SetState(t, core.StateWaiting)
		t.WaitLabel = "vm: frame wait"
		v.K.Block(e, stats.BlockPageFault, v.ContFaultRetry, nil, 160, "vm-frame-wait")
		return
	}

	// Claim a frame and start the disk read.
	v.FreeFrames--
	if v.FreeFrames < v.LowWater {
		v.wakeDaemon()
	}
	v.DiskFaults++
	sp := v.SpaceOf(t)
	if v.Disk != nil {
		// Queue the read on the paging disk. The request completes in a
		// disk interrupt; the io_done thread maps the page and (in the
		// continuation kernel) hands its stack straight to the faulter,
		// recognizing vm_fault_continue. Concurrent faulters queue behind
		// each other on the one device — a pager storm sees the spindle.
		d := v.newDiskRead()
		d.sp, d.page = sp, page
		d.req = dev.Request{
			Label:    "page-in",
			Bytes:    PageSize,
			Latency:  v.DiskLatency,
			Complete: d.req.Complete,
			Waiter:   t,
			Expect:   v.ContFaultContinue,
			Inline:   v.faultContinueFn,
		}
		v.Disk.Submit(&d.req)
	} else {
		v.K.Clock.Schedule(v.K.Clock.Now()+v.DiskLatency, v.pageInFn, t)
	}
	t.Scratch.PutWord(0, uint32(page))
	t.Scratch.PutWord(1, wflag)
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "vm: page-in"
	v.K.Block(e, stats.BlockPageFault, v.ContFaultContinue, nil, 160, "vm-page-in")
}

// pageIn is the flat-latency disk's interrupt, on a timer carrying the
// faulting thread: the page named by its scratch word 0 is in memory; map
// it and wake the faulter. Mapping cost is charged in the faulter's
// continuation.
func (v *VM) pageIn(arg any) {
	t := arg.(*core.Thread)
	v.mapPage(v.SpaceOf(t), uint64(t.Scratch.Word(0)))
	v.K.Setrun(t)
}

// mapPage makes page resident in sp, the youngest page in the eviction
// queue.
func (v *VM) mapPage(sp *Space, page uint64) {
	sp.resident[page] = pageEntry{}
	v.fifo = append(v.fifo, pageRef{space: sp, page: page})
}

// diskRead is one page-in on the paging disk: its device request and the
// page it maps. The record keeps the page even when an abort detaches
// the faulter, and its completion is bound once, when the record is
// made, so a page-in that reuses one allocates only the page's entry.
type diskRead struct {
	req  dev.Request
	sp   *Space
	page uint64
}

// newDiskRead returns a finished read record, or a new one.
func (v *VM) newDiskRead() *diskRead {
	if n := len(v.diskReads); n > 0 {
		d := v.diskReads[n-1]
		v.diskReads = v.diskReads[:n-1]
		return d
	}
	d := &diskRead{}
	d.req.Complete = func(*core.Env) { v.diskReadDone(d) }
	return d
}

// diskReadDone is a disk read's completion, run by io_done: it maps the
// page and frees the record. io_done's last use of the request is to
// resume its faulter, so no later fault can take the record while the
// completion is still being processed.
func (v *VM) diskReadDone(d *diskRead) {
	v.mapPage(d.sp, d.page)
	d.sp = nil
	v.diskReads = append(v.diskReads, d)
}

// faultContinue runs when the page-in completes: enter the page into the
// pmap and resume the thread at user level. Transfers control.
func (v *VM) faultContinue(e *core.Env) {
	e.Charge(faultMapCost)
	v.K.ThreadExceptionReturn(e)
}

// faultRetry re-runs the fault after a frame wait. Transfers control.
func (v *VM) faultRetry(e *core.Env) {
	t := e.Cur()
	page := uint64(t.Scratch.Word(0))
	v.HandleFault(e, page<<PageShift, t.Scratch.Word(1) != 0)
}

// KernelFault services a page fault taken in kernel mode: the thread's
// kernel state and stack are preserved — the process model is the safety
// net here even in the continuation kernel (§2.5). resume continues the
// interrupted kernel path. Transfers control.
func (v *VM) KernelFault(e *core.Env, frameBytes int, resume func(*core.Env)) {
	e.Charge(faultSoftCost)
	v.KernelFaults++
	t := e.Cur()
	if v.FreeFrames > 0 {
		v.FreeFrames--
		if v.FreeFrames < v.LowWater {
			v.wakeDaemon()
		}
	}
	v.K.WakeAt(v.K.Clock.Now()+v.DiskLatency, t)
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "vm: kernel fault"
	v.K.Block(e, stats.BlockKernelFault, nil, func(e2 *core.Env) {
		e2.Charge(faultMapCost)
		resume(e2)
	}, frameBytes, "kernel-fault")
}

// wakeDaemon makes the pageout thread runnable if it is sleeping.
func (v *VM) wakeDaemon() {
	if v.Daemon.State() == core.StateWaiting {
		v.K.Setrun(v.Daemon)
	}
}

// pageoutLoop is the daemon's work loop, §2.2 style: do work, then block
// with this same continuation, achieving the infinite loop through tail
// recursion. Transfers control.
func (v *VM) pageoutLoop(e *core.Env) {
	for v.FreeFrames < v.HighWater && len(v.fifo) > 0 {
		ref := v.fifo[0]
		v.fifo = v.fifo[1:]
		entry, ok := ref.space.resident[ref.page]
		if !ok {
			continue // already unmapped
		}
		delete(ref.space.resident, ref.page)
		e.Charge(evictCost)
		v.Evictions++
		if v.Disk != nil {
			// Write the dirty page behind the eviction: fire-and-forget —
			// the daemon does not wait, but the write occupies the spindle
			// and queues against concurrent page-ins.
			v.Disk.Submit(&dev.Request{
				Label:   "page-out",
				Bytes:   PageSize,
				Latency: v.DiskLatency,
			})
		}
		if entry.shared != nil {
			// Unmapping one copy-on-write mapping frees the frame only
			// when the last mapper goes.
			entry.shared.refs--
			if entry.shared.refs > 0 {
				continue
			}
		}
		v.FreeFrames++
	}
	// Frames freed: retry the frame-waiters.
	if v.FreeFrames > 0 && len(v.waiters) > 0 {
		n := len(v.waiters)
		if n > v.FreeFrames {
			n = v.FreeFrames
		}
		for _, t := range v.waiters[:n] {
			v.K.Setrun(t)
		}
		v.waiters = append(v.waiters[:0], v.waiters[n:]...)
	}
	d := e.Cur()
	e.K.SetState(d, core.StateWaiting)
	d.WaitLabel = "pageout: idle"
	v.K.Block(e, stats.BlockInternal, v.contPageout, nil, 256, "pageout-wait")
}

// Touch marks a page resident without a fault, for tests and workload
// setup (pre-faulted working sets).
func (v *VM) Touch(spaceID int, addr uint64) {
	sp := v.spaces[spaceID]
	if sp == nil {
		panic(fmt.Sprintf("vm: Touch on unregistered space %d", spaceID))
	}
	page := addr >> PageShift
	if _, ok := sp.resident[page]; ok {
		return
	}
	if v.FreeFrames == 0 {
		panic("vm: Touch with no free frames")
	}
	v.FreeFrames--
	sp.resident[page] = pageEntry{}
	v.fifo = append(v.fifo, pageRef{space: sp, page: page})
}

// ResidentTotal counts resident pages across all spaces.
func (v *VM) ResidentTotal() int {
	n := 0
	for _, s := range v.spaces {
		n += len(s.resident)
	}
	return n
}
