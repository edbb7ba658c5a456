package machine

import "fmt"

// KernelStackSize is the size of one kernel stack, 4 kilobytes on every
// architecture the paper measures.
const KernelStackSize = 4096

// StackOwner describes who currently holds a kernel stack. Exactly one
// owner holds any live stack; the invariant is property-tested.
type StackOwner int

const (
	// OwnerFree means the stack sits in the pool's free list.
	OwnerFree StackOwner = iota
	// OwnerThread means the stack is attached to a thread (running or
	// blocked under the process model).
	OwnerThread
	// OwnerTransit means the stack is momentarily between threads during
	// a handoff.
	OwnerTransit
)

func (o StackOwner) String() string {
	switch o {
	case OwnerFree:
		return "free"
	case OwnerThread:
		return "thread"
	case OwnerTransit:
		return "transit"
	default:
		return fmt.Sprintf("StackOwner(%d)", int(o))
	}
}

// Frame models one preserved activation record on a kernel stack: the
// resume step standing in for the saved return address and register
// context of a process-model block, plus the number of bytes of stack the
// suspended call chain occupies.
type Frame struct {
	// Resume is the suspended computation, invoked through the kernel
	// dispatcher when the owning thread is switched back in. The machine
	// layer treats it as opaque; the kernel stores its own closure type.
	Resume any
	// Bytes is the simulated depth of the suspended call chain.
	Bytes int
	// Label describes the block site, for traces and tests.
	Label string
}

// Stack is a kernel stack as an explicit resource. The simulator does not
// execute machine code on it; it tracks ownership, simulated usage in
// bytes, and the frames preserved across process-model blocks. The 4 KB of
// backing store is what the paper's space accounting (Table 5) charges.
type Stack struct {
	ID    int
	owner StackOwner

	// frames holds preserved contexts, innermost last.
	frames []Frame

	// used is the current simulated depth in bytes.
	used int

	// maxUsed is the high-water depth since allocation.
	maxUsed int
}

// Owner reports who currently holds the stack.
func (s *Stack) Owner() StackOwner { return s.owner }

// Used reports the current simulated depth in bytes.
func (s *Stack) Used() int { return s.used }

// MaxUsed reports the high-water depth in bytes since the stack was last
// allocated from the pool.
func (s *Stack) MaxUsed() int { return s.maxUsed }

// Grow charges n bytes of stack depth, panicking on overflow — a real
// kernel would double-fault. Pair with Shrink.
func (s *Stack) Grow(n int) {
	if n < 0 {
		panic("machine: negative stack growth")
	}
	s.used += n
	if s.used > KernelStackSize {
		panic(fmt.Sprintf("machine: kernel stack %d overflow: %d bytes", s.ID, s.used))
	}
	if s.used > s.maxUsed {
		s.maxUsed = s.used
	}
}

// Shrink releases n bytes of stack depth.
func (s *Stack) Shrink(n int) {
	if n < 0 || n > s.used {
		panic(fmt.Sprintf("machine: bad stack shrink %d (used %d)", n, s.used))
	}
	s.used -= n
}

// PushFrame preserves a blocked call chain on the stack.
func (s *Stack) PushFrame(f Frame) {
	if f.Resume == nil {
		panic("machine: frame without resume step")
	}
	s.Grow(f.Bytes)
	s.frames = append(s.frames, f)
}

// PopFrame removes and returns the innermost preserved frame.
func (s *Stack) PopFrame() Frame {
	if len(s.frames) == 0 {
		panic(fmt.Sprintf("machine: pop on frame-less stack %d", s.ID))
	}
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.Shrink(f.Bytes)
	return f
}

// FrameCount reports how many preserved frames the stack holds.
func (s *Stack) FrameCount() int { return len(s.frames) }

// Reset clears all simulated content, as call_continuation does when it
// rewinds the stack pointer to the base.
func (s *Stack) Reset() {
	s.frames = s.frames[:0]
	s.used = 0
}

// StackPool allocates kernel stacks and records the statistics the paper
// reports in §3.4: how many stacks exist, the high-water mark, and the
// time-weighted average count (the "2.002 stacks" number).
type StackPool struct {
	clock *Clock

	free []*Stack
	// nextID numbers stacks from 1; the pool never destroys one, so it
	// is also how many exist.
	nextID int

	// VMMetadataBytes is the per-stack virtual-memory bookkeeping cost
	// (116 bytes for a pageable MK32 stack, 0 when stacks are wired);
	// carried here so the space model can charge it per live stack.
	VMMetadataBytes int

	allocs   uint64
	frees    uint64
	inUse    int
	maxInUse int

	// Time-weighted census of in-use stacks.
	lastCensusTime Time
	weightedSum    float64
	weightedTime   float64
}

// NewStackPool returns an empty pool whose census follows clock.
func NewStackPool(clock *Clock, vmMetadataBytes int) *StackPool {
	return &StackPool{
		clock:           clock,
		VMMetadataBytes: vmMetadataBytes,
		lastCensusTime:  clock.Now(),
	}
}

func (p *StackPool) census() {
	now := p.clock.Now()
	dt := float64(now - p.lastCensusTime)
	if dt > 0 {
		p.weightedSum += dt * float64(p.inUse)
		p.weightedTime += dt
		p.lastCensusTime = now
	}
}

// Allocate returns a stack, reusing a free one when possible. The stack is
// returned in transit; the caller attaches it to a thread.
func (p *StackPool) Allocate() *Stack {
	p.census()
	var s *Stack
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		p.nextID++
		s = &Stack{ID: p.nextID}
	}
	s.owner = OwnerTransit
	s.Reset()
	s.maxUsed = 0
	p.allocs++
	p.inUse++
	if p.inUse > p.maxInUse {
		p.maxInUse = p.inUse
	}
	return s
}

// Free returns a detached stack to the pool. Freeing a stack that still
// holds frames, or double-freeing, panics: both are kernel bugs.
func (p *StackPool) Free(s *Stack) {
	p.census()
	if s.owner == OwnerFree {
		panic(fmt.Sprintf("machine: double free of stack %d", s.ID))
	}
	if s.FrameCount() != 0 {
		panic(fmt.Sprintf("machine: freeing stack %d with %d live frames", s.ID, s.FrameCount()))
	}
	s.owner = OwnerFree
	s.Reset()
	p.free = append(p.free, s)
	p.frees++
	p.inUse--
}

// InUse reports how many stacks are currently allocated to threads or in
// transit.
func (p *StackPool) InUse() int { return p.inUse }

// MaxInUse reports the high-water mark of simultaneously allocated stacks.
func (p *StackPool) MaxInUse() int { return p.maxInUse }

// TotalStacks reports how many distinct stacks were ever created (the
// pool never returns memory to the system, like the kernel's zone).
func (p *StackPool) TotalStacks() int { return p.nextID }

// Allocs and Frees report cumulative operation counts.
func (p *StackPool) Allocs() uint64 { return p.allocs }
func (p *StackPool) Frees() uint64  { return p.frees }

// AverageInUse reports the time-weighted mean number of allocated stacks
// since the pool was created — the statistic behind the paper's "the
// number of kernel stacks was, on average, 2.002".
func (p *StackPool) AverageInUse() float64 {
	p.census()
	if p.weightedTime == 0 {
		return float64(p.inUse)
	}
	return p.weightedSum / p.weightedTime
}

// setOwner is used by the kernel when attaching/detaching stacks.
func (s *Stack) SetOwner(o StackOwner) { s.owner = o }
