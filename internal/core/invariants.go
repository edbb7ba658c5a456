package core

import (
	"fmt"

	"repro/internal/machine"
)

// Validate checks the kernel's structural invariants (DESIGN.md §7).
// It returns the first violation found, or nil. The checker is meant to
// run between dispatcher steps — the only points where the machine is in
// a consistent state — and is used by the randomized stress tests.
func (k *Kernel) Validate() error {
	// Every processor's current thread is running, has a stack, and is
	// not simultaneously queued.
	running := make(map[*Thread]*Processor)
	for _, p := range k.Procs {
		// A transfer is consumed by the trampoline within its own step.
		if p.transferred {
			return fmt.Errorf("processor %d still marked transferred outside the trampoline", p.ID)
		}
		t := p.Cur
		if t == nil {
			continue
		}
		if prev, dup := running[t]; dup {
			return fmt.Errorf("thread %v current on processors %d and %d", t, prev.ID, p.ID)
		}
		running[t] = p
		if t.state != StateRunning {
			return fmt.Errorf("current %v in state %v", t, t.state)
		}
		if t.Stack == nil {
			return fmt.Errorf("running %v has no kernel stack", t)
		}
		if t.queued {
			return fmt.Errorf("running %v still on a run queue", t)
		}
	}

	pending := make(map[*Thread]bool, len(k.pendingReap))
	for _, t := range k.pendingReap {
		if pending[t] {
			return fmt.Errorf("%v twice on the pending-reap list", t)
		}
		pending[t] = true
	}

	stackOwners := make(map[*machine.Stack]*Thread)
	var attached, waiting, reaped, unreaped int
	for i, t := range k.Threads {
		// The lifecycle oracles: the registry stays in ID order (reaping
		// order and compaction both depend on it), and its tallies match
		// the incrementally maintained counts checked below.
		if i > 0 && k.Threads[i-1].ID >= t.ID {
			return fmt.Errorf("registry out of ID order: %v before %v", k.Threads[i-1], t)
		}
		if t.reaped {
			if t.state != StateHalted {
				return fmt.Errorf("reaped %v in state %v", t, t.state)
			}
			reaped++
		} else if t.state == StateHalted {
			if !pending[t] {
				return fmt.Errorf("halted %v missing from the pending-reap list", t)
			}
			unreaped++
		}
		if t.state == StateWaiting {
			waiting++
		}
		if t.Stack != nil {
			if other, dup := stackOwners[t.Stack]; dup {
				return fmt.Errorf("stack %d owned by both %v and %v", t.Stack.ID, other, t)
			}
			stackOwners[t.Stack] = t
			attached++
			if t.Stack.Owner() != machine.OwnerThread {
				return fmt.Errorf("stack %d attached to %v but owned by %v",
					t.Stack.ID, t, t.Stack.Owner())
			}
		}

		switch t.state {
		case StateRunning:
			if _, ok := running[t]; !ok {
				return fmt.Errorf("%v running but current on no processor", t)
			}
			// A running thread has consumed its continuation.
			if t.Cont != nil {
				return fmt.Errorf("running %v still carries continuation %v", t, t.Cont)
			}
		case StateRunnable:
			// Runnable threads are queued, or in the brief window where
			// thread_dispatch will queue them (their disposer's pending
			// step has not run yet); that window also permits a stale
			// stack awaiting disposal.
		case StateWaiting:
			if t.Cont != nil && t.Stack != nil && !t.disposalPending {
				return fmt.Errorf("waiting %v holds both continuation %v and stack %d outside the disposal window",
					t, t.Cont, t.Stack.ID)
			}
			if t.Cont == nil && t.Stack != nil && t.Stack.FrameCount() == 0 && !t.disposalPending {
				return fmt.Errorf("waiting %v holds a frame-less stack %d and no continuation",
					t, t.Stack.ID)
			}
			if t.Cont == nil && t.Stack == nil {
				return fmt.Errorf("waiting %v has neither continuation nor stack: unresumable", t)
			}
		case StateHalted:
			if t.queued {
				return fmt.Errorf("halted %v on a run queue", t)
			}
		}

		if t.queued && t.state != StateRunnable {
			return fmt.Errorf("%v queued in state %v", t, t.state)
		}
		if t.Scratch.Used() > ScratchSlots {
			return fmt.Errorf("%v scratch overflow", t)
		}
	}

	if waiting != k.waiting {
		return fmt.Errorf("waiting count %d, registry holds %d waiting threads", k.waiting, waiting)
	}
	if reaped != k.deadInRegistry {
		return fmt.Errorf("registry holds %d reaped threads, bookkeeping says %d", reaped, k.deadInRegistry)
	}
	if reaped > 0 && 2*reaped >= len(k.Threads) {
		return fmt.Errorf("registry not compacted: %d of %d threads reaped", reaped, len(k.Threads))
	}
	// With the membership check in the loop, this makes the pending-reap
	// list exactly the registry's halted threads that are not yet reaped.
	if unreaped != len(pending) {
		return fmt.Errorf("registry holds %d halted unreaped threads, pending-reap list %d", unreaped, len(pending))
	}

	// The pool's accounting matches the attachments: every in-use stack
	// is attached to exactly one thread (the transit state is internal
	// to a dispatcher step and never visible here).
	if got := k.Stacks.InUse(); got != attached {
		return fmt.Errorf("stack pool reports %d in use, %d attached to threads", got, attached)
	}

	// Substrate-registered checks: port waiter/sendWaiter consistency,
	// device queue consistency, callout hygiene.
	for _, check := range k.Invariants {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// MustValidate panics on an invariant violation; used in tests.
func (k *Kernel) MustValidate() {
	if err := k.Validate(); err != nil {
		panic(fmt.Sprintf("core: invariant violated: %v", err))
	}
}

// PostDispatchCheck runs the full invariant sweep when DebugChecks is
// enabled. The dispatcher calls it after every step — the only points
// where the machine is guaranteed consistent — so a corrupted waiter
// list or leaked callout is caught at the step that created it, not at
// some arbitrarily later failure.
func (k *Kernel) PostDispatchCheck() {
	if !k.DebugChecks {
		return
	}
	if err := k.Validate(); err != nil {
		panic(fmt.Sprintf("core: post-dispatch invariant violated: %v", err))
	}
	k.Stats.InvariantPasses++
}
