package vm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
)

// share is the bookkeeping for one physical frame mapped copy-on-write
// into multiple address spaces. The frame is released when the last
// mapping disappears.
type share struct {
	refs int
}

// pageEntry describes one resident virtual page of a space; a space's
// resident map holds it by value, so a change is stored back.
type pageEntry struct {
	// shared is non-nil while the page is a copy-on-write mapping of a
	// frame other spaces may also map.
	shared *share
}

// cowMapCost is the per-page cost of establishing a copy-on-write
// mapping: a map entry write plus protection downgrade in both spaces.
var cowMapCost = machine.Cost{Instrs: 60, Loads: 12, Stores: 18}

// cowBreakCost is the fixed cost of resolving a write fault on a shared
// page (protection fixup, share bookkeeping); the page copy itself is
// charged by size.
var cowBreakCost = machine.Cost{Instrs: 80, Loads: 20, Stores: 20}

// ShareCopyOnWrite maps n pages starting at addr from the source space
// into the destination space copy-on-write: both spaces see the same
// physical frames, write-protected; the first store to a shared page
// copies it. Pages not resident in the source are skipped (they will
// fault in privately). Returns the number of pages shared. Callable from
// a kernel path; charges per page.
func (v *VM) ShareCopyOnWrite(e *core.Env, srcID, dstID int, addr uint64, n int) int {
	src := v.spaces[srcID]
	dst := v.spaces[dstID]
	if src == nil || dst == nil {
		panic(fmt.Sprintf("vm: ShareCopyOnWrite between unregistered spaces %d -> %d", srcID, dstID))
	}
	shared := 0
	for i := 0; i < n; i++ {
		page := (addr >> PageShift) + uint64(i)
		entry, ok := src.resident[page]
		if !ok {
			continue
		}
		if _, already := dst.resident[page]; already {
			continue
		}
		e.Charge(cowMapCost)
		if entry.shared == nil {
			entry.shared = &share{refs: 1}
			src.resident[page] = entry
		}
		entry.shared.refs++
		dst.resident[page] = pageEntry{shared: entry.shared}
		v.fifo = append(v.fifo, pageRef{space: dst, page: page})
		v.CowShares++
		shared++
	}
	return shared
}

// SharedPages counts resident pages of a space that are currently
// copy-on-write mappings.
func (s *Space) SharedPages() int {
	n := 0
	for _, entry := range s.resident {
		if entry.shared != nil && entry.shared.refs > 1 {
			n++
		}
	}
	return n
}

// breakCow resolves a write fault on a shared page in the current
// thread's space. It either privatizes in place (last reference) or
// copies the page to a fresh frame, possibly blocking for one. Transfers
// control.
func (v *VM) breakCow(e *core.Env, sp *Space, page uint64, entry pageEntry) {
	t := e.Cur()
	e.Charge(cowBreakCost)
	if entry.shared.refs == 1 {
		// Last mapper: just take the frame private.
		sp.resident[page] = pageEntry{}
		v.CowBreaks++
		v.K.ThreadExceptionReturn(e)
		return
	}
	if v.FreeFrames == 0 {
		// Need a frame for the private copy: wait and retry the fault.
		v.FrameWaits++
		v.waiters = append(v.waiters, t)
		v.wakeDaemon()
		t.Scratch.PutWord(0, uint32(page))
		t.Scratch.PutWord(1, 1) // write fault
		e.K.SetState(t, core.StateWaiting)
		t.WaitLabel = "vm: cow frame wait"
		v.K.Block(e, blockReasonFault, v.ContFaultRetry, nil, 160, "vm-cow-frame-wait")
		return
	}
	// Copy the page into a private frame.
	v.FreeFrames--
	if v.FreeFrames < v.LowWater {
		v.wakeDaemon()
	}
	e.Charge(machine.CopyBytes(PageSize))
	entry.shared.refs--
	sp.resident[page] = pageEntry{}
	v.CowBreaks++
	v.K.ThreadExceptionReturn(e)
}
