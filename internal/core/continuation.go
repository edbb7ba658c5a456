// Package core implements the paper's primary contribution: thread
// management and control transfer built on continuations (§2), including
// the machine-independent interface of Figure 3 (stack attach/detach/
// handoff, call_continuation, switch_context, thread_syscall_return,
// thread_exception_return) and the higher-level operations of Figure 4
// (thread_block, thread_handoff, thread_continue, thread_dispatch).
//
// A thread blocks in one of two ways:
//
//   - with a continuation: the thread names a Continuation and saves at
//     most 28 bytes of context in its scratch area; its kernel stack is
//     discarded (or handed directly to the next thread) and the thread is
//     resumed by calling the continuation on a fresh stack base;
//
//   - under the process model: the thread keeps its kernel stack, a frame
//     preserving its call chain is pushed, and it is resumed by a full
//     context switch.
//
// Continuations are first-class, named, pointer-comparable values, which
// is what makes continuation recognition (§2.3) possible: a resumer can
// compare a blocked thread's continuation against a known value and run a
// faster inline sequence instead of calling it.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// Continuation is a resumption point: a function a thread should execute
// when it next runs. Continuations must be declared at package level with
// NewContinuation so that they are comparable by identity and cannot
// close over per-thread state — any state a thread needs across the block
// must travel through its 28-byte scratch area, exactly as in the paper.
//
// A continuation must transfer control before it returns: it ends in a
// control-transfer operation (ThreadSyscallReturn, ThreadExceptionReturn,
// Block, CallContinuation, Halt), after which it returns at once — the
// code after the transfer is the paper's /*NOTREACHED*/.
type Continuation struct {
	name string
	fn   func(*Env)
	// id is the name's obs.ContID, interned at the first emit that
	// names the continuation (0 until then), so a continuation never
	// emitted costs nothing and booting a kernel interns nothing. It is
	// atomic because package-level continuations are shared by machines
	// running in parallel.
	id atomic.Uint32
}

// NewContinuation registers a continuation point. The name appears in
// traces and diagnostics.
func NewContinuation(name string, fn func(*Env)) *Continuation {
	if name == "" || fn == nil {
		panic("core: continuation needs a name and a body")
	}
	return &Continuation{name: name, fn: fn}
}

// obsID returns the continuation's interned observability id, obs.NoCont
// for nil. Racing first calls intern the same name and store the same
// id.
func (c *Continuation) obsID() obs.ContID {
	if c == nil {
		return obs.NoCont
	}
	if id := c.id.Load(); id != 0 {
		return obs.ContID(id)
	}
	id := obs.Intern(c.name)
	c.id.Store(uint32(id))
	return id
}

// Name returns the continuation's diagnostic name.
func (c *Continuation) Name() string {
	if c == nil {
		return "<none>"
	}
	return c.name
}

func (c *Continuation) String() string { return c.Name() }

// ScratchSlots is the number of 32-bit slots in a thread's scratch area.
// The paper gives threads 28 bytes of scratch; with 1991-era 4-byte
// pointers that is seven words, each of which may hold either a small
// integer or one object reference.
const ScratchSlots = 7

// ScratchBytes is the scratch area capacity in bytes.
const ScratchBytes = ScratchSlots * 4

// Scratch is the fixed-size per-thread save area for state preserved
// across a continuation block. If a thread needs more than seven words it
// must allocate an auxiliary structure and keep a single reference to it
// here — the same discipline the paper imposes.
type Scratch struct {
	words [ScratchSlots]uint32
	refs  [ScratchSlots]any
	inUse [ScratchSlots]bool
}

// Reset clears the scratch area, dropping any references.
func (s *Scratch) Reset() {
	*s = Scratch{}
}

func (s *Scratch) check(slot int) {
	if slot < 0 || slot >= ScratchSlots {
		panic(fmt.Sprintf("core: scratch slot %d out of range (28-byte scratch area has %d word slots)",
			slot, ScratchSlots))
	}
}

// PutWord stores a 32-bit value in the given slot.
func (s *Scratch) PutWord(slot int, v uint32) {
	s.check(slot)
	s.words[slot] = v
	s.refs[slot] = nil
	s.inUse[slot] = true
}

// Word reads a 32-bit value previously stored with PutWord.
func (s *Scratch) Word(slot int) uint32 {
	s.check(slot)
	if !s.inUse[slot] {
		panic(fmt.Sprintf("core: scratch slot %d read before write", slot))
	}
	return s.words[slot]
}

// PutRef stores one object reference (a 1991 pointer: four bytes) in the
// given slot.
func (s *Scratch) PutRef(slot int, v any) {
	s.check(slot)
	s.refs[slot] = v
	s.words[slot] = 0
	s.inUse[slot] = true
}

// Ref reads an object reference previously stored with PutRef.
func (s *Scratch) Ref(slot int) any {
	s.check(slot)
	if !s.inUse[slot] {
		panic(fmt.Sprintf("core: scratch slot %d read before write", slot))
	}
	return s.refs[slot]
}

// Used reports how many slots currently hold saved state.
func (s *Scratch) Used() int {
	n := 0
	for _, u := range s.inUse {
		if u {
			n++
		}
	}
	return n
}
