package core

// CrashReset models a whole-machine crash at the control-transfer layer:
// every thread dies instantly, every kernel stack returns to the pool,
// and every processor forgets what it was doing. It returns how many
// live threads the crash killed.
//
// The paper's thread representation is what makes this operation small:
// a blocked thread is a continuation pointer plus 28 bytes of scratch
// state, so "drop all in-flight state" is a walk over the thread table,
// not an unwind of live stacks. The caller (kern.System.Crash) captures
// the panic record from that same table before invoking this.
//
// The clock is deliberately untouched: simulated time continues across a
// crash, and the caller decides which pending events survive (in-flight
// wire arrivals do; local timers, callouts and retransmits do not — see
// machine.Clock.PurgeLocal). Substrate hooks (Invariants, OnHalt, fault
// and exception handlers) are cleared because they belong to the dead
// incarnation's subsystem objects; the warm-reboot path re-registers
// fresh ones. The scheduler is left in place but must be replaced by the
// caller before the next dispatch — its queues still name dead threads.
func (k *Kernel) CrashReset() int {
	killed := 0
	for _, p := range k.Procs {
		p.Cur = nil
		p.Prev = nil
		p.pending = nil
		p.transferred = false
		p.dispose = nil
	}
	for _, t := range k.Threads {
		if t.state != StateHalted {
			killed++
		}
		if t.Stack != nil {
			s := t.Stack
			t.Stack = nil
			s.Reset()
			k.Stacks.Free(s)
		}
		t.Cont = nil
		k.SetState(t, StateHalted)
		t.WaitLabel = ""
		t.queued = false
		t.disposalPending = false
		t.WakeupPending = false
	}
	clear(k.Threads)
	k.Threads = k.Threads[:0]
	clear(k.pendingReap)
	k.pendingReap = k.pendingReap[:0]
	k.deadInRegistry = 0
	k.waiting = 0
	k.Invariants = nil
	k.OnHalt = nil
	k.HandleFault = nil
	k.HandleException = nil
	return killed
}

// BlockedSnapshot describes one blocked or runnable thread at crash time,
// for the panic record: the continuation-kernel diagnostic the paper
// promises ("the continuation identifies what the thread is doing").
type BlockedSnapshot struct {
	ID    int
	Name  Name
	State ThreadState
	// Cont is the saved continuation's name, "<stack>" for a
	// process-model block, or "<running>" for the current thread.
	Cont string
	// WaitLabel is the block site's label, when the thread was waiting.
	WaitLabel string
}

// SnapshotThreads captures the thread table for a panic record. It is
// read-only and safe to call at any dispatcher boundary.
func (k *Kernel) SnapshotThreads() []BlockedSnapshot {
	var out []BlockedSnapshot
	for _, t := range k.Threads {
		if t.state == StateHalted {
			continue
		}
		snap := BlockedSnapshot{
			ID:        t.ID,
			Name:      t.Name(),
			State:     t.state,
			WaitLabel: t.WaitLabel,
		}
		switch {
		case t.Cont != nil:
			snap.Cont = t.Cont.Name()
		case t.state == StateRunning:
			snap.Cont = "<running>"
		default:
			snap.Cont = "<stack>"
		}
		out = append(out, snap)
	}
	return out
}
