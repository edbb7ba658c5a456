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
	"math/bits"
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

// ScratchSlots is the number of 32-bit words in a thread's scratch area.
// The paper gives threads 28 bytes of scratch: with 1991-era 4-byte
// pointers, seven words, any of which may hold a small integer or an
// object reference.
const ScratchSlots = 7

// ScratchBytes is the scratch area capacity in bytes.
const ScratchBytes = ScratchSlots * 4

// Scratch is the fixed-size per-thread save area for state preserved
// across a continuation block: seven 32-bit words plus one object
// reference. A thread that needs more must allocate an auxiliary
// structure and keep its one reference here — the discipline the paper
// imposes. The host keeps the reference beside the words (a Go reference
// is wider than a 1991 pointer), but in the paper's accounting it fills
// one of the seven words, so Used counts it and may not exceed
// ScratchSlots.
type Scratch struct {
	words [ScratchSlots]uint32
	// used has bit i set while word i holds saved state; refBit marks
	// the reference.
	used uint8
	ref  any
}

// refBit is Scratch.used's bit for the reference.
const refBit = 1 << ScratchSlots

// Reset clears the scratch area, dropping its reference.
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
	s.used |= 1 << slot
}

// Word reads a 32-bit value previously stored with PutWord.
func (s *Scratch) Word(slot int) uint32 {
	s.check(slot)
	if s.used&(1<<slot) == 0 {
		panic(fmt.Sprintf("core: scratch slot %d read before write", slot))
	}
	return s.words[slot]
}

// SetRef stores the area's one object reference (a 1991 pointer: four
// bytes), replacing any previous one.
func (s *Scratch) SetRef(v any) {
	s.ref = v
	s.used |= refBit
}

// Ref reads the reference previously stored with SetRef.
func (s *Scratch) Ref() any {
	if s.used&refBit == 0 {
		panic("core: scratch reference read before write")
	}
	return s.ref
}

// Used reports how many of the seven words hold saved state, counting
// the reference as one.
func (s *Scratch) Used() int {
	return bits.OnesCount8(s.used)
}
