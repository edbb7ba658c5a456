// Package stats collects the counters behind the paper's evaluation:
// which block points fire (Table 1), and how often stack discarding,
// stack handoff and continuation recognition apply (Tables 1 and 2).
package stats

import "fmt"

// BlockReason classifies a blocking operation by the paper's Table 1 rows.
type BlockReason int

const (
	// BlockReceive is a thread waiting in mach_msg to receive a message.
	BlockReceive BlockReason = iota
	// BlockException is a faulting thread waiting for its exception
	// server's reply.
	BlockException
	// BlockPageFault is a thread waiting for a page to be filled.
	BlockPageFault
	// BlockThreadSwitch is a voluntary processor relinquishment from user
	// level (thread_switch).
	BlockThreadSwitch
	// BlockPreempt is an involuntary preemption at quantum expiry.
	BlockPreempt
	// BlockInternal is an internal kernel thread waiting for work.
	BlockInternal
	// BlockKernelFault is a page fault taken in kernel mode (process
	// model only; Table 1's bottom row).
	BlockKernelFault
	// BlockKernelAlloc is a wait for kernel memory (process model only).
	BlockKernelAlloc
	// BlockLock is a wait for a contended kernel lock (process model
	// only).
	BlockLock
	// BlockDeviceIO is a thread waiting in device_read/device_write for a
	// device request to complete (the io_done path).
	BlockDeviceIO
	numBlockReasons
)

// NumBlockReasons is the count of distinct reasons, for table iteration.
const NumBlockReasons = int(numBlockReasons)

func (r BlockReason) String() string {
	switch r {
	case BlockReceive:
		return "message receive"
	case BlockException:
		return "exception"
	case BlockPageFault:
		return "page fault"
	case BlockThreadSwitch:
		return "thread switch"
	case BlockPreempt:
		return "preempt"
	case BlockInternal:
		return "internal threads"
	case BlockKernelFault:
		return "kernel fault"
	case BlockKernelAlloc:
		return "kernel alloc"
	case BlockLock:
		return "lock wait"
	case BlockDeviceIO:
		return "device io"
	default:
		return fmt.Sprintf("BlockReason(%d)", int(r))
	}
}

// DiscardReasons lists the reasons that can block with a continuation and
// therefore appear in Table 1's "Using Stack Discard" rows, in the
// paper's row order.
var DiscardReasons = []BlockReason{
	BlockReceive, BlockException, BlockPageFault,
	BlockThreadSwitch, BlockPreempt, BlockInternal,
	BlockDeviceIO,
}

// Kernel aggregates control-transfer statistics for one kernel run.
type Kernel struct {
	// BlocksWithDiscard counts blocks, per reason, that used a
	// continuation and discarded (or handed off) the kernel stack.
	BlocksWithDiscard [NumBlockReasons]uint64

	// BlocksWithoutDiscard counts process-model blocks, per reason, that
	// kept their stack (Table 1's "no stack discards" row).
	BlocksWithoutDiscard [NumBlockReasons]uint64

	// Handoffs counts blocks whose stack moved directly to the next
	// thread (Table 2).
	Handoffs uint64

	// Recognitions counts control transfers where the resumer inspected
	// the new thread's continuation and took a faster inline path
	// (Table 2).
	Recognitions uint64

	// ContinuationCalls counts resumptions that went through the general
	// call_continuation path (i.e. were not recognized away).
	ContinuationCalls uint64

	// ContextSwitches counts full register save/restore transfers.
	ContextSwitches uint64

	// StackAttaches counts stacks initialized for stackless threads.
	StackAttaches uint64

	// Interrupts counts device interrupts taken on a processor's current
	// stack (never on a stack of their own).
	Interrupts uint64

	// IoDoneRecognitions counts io_done completions where the internal
	// I/O thread recognized the waiter's device continuation and finished
	// the request inline, without a general continuation call.
	IoDoneRecognitions uint64

	// InvariantPasses counts post-dispatch invariant sweeps that came
	// back clean (only advances when DebugChecks is on).
	InvariantPasses uint64

	// Aborts counts thread_abort redirections of blocked threads.
	Aborts uint64
}

// RecordBlock tallies one blocking operation.
func (k *Kernel) RecordBlock(r BlockReason, discarded bool) {
	if discarded {
		k.BlocksWithDiscard[r]++
	} else {
		k.BlocksWithoutDiscard[r]++
	}
}

// TotalBlocks returns all blocking operations observed.
func (k *Kernel) TotalBlocks() uint64 {
	var n uint64
	for i := 0; i < NumBlockReasons; i++ {
		n += k.BlocksWithDiscard[i] + k.BlocksWithoutDiscard[i]
	}
	return n
}

// TotalDiscards returns blocks that discarded or handed off their stack.
func (k *Kernel) TotalDiscards() uint64 {
	var n uint64
	for i := 0; i < NumBlockReasons; i++ {
		n += k.BlocksWithDiscard[i]
	}
	return n
}

// TotalNoDiscards returns process-model blocks that kept their stack.
func (k *Kernel) TotalNoDiscards() uint64 {
	return k.TotalBlocks() - k.TotalDiscards()
}

// Percent returns 100*part/whole, 0 when whole is 0.
func Percent(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
