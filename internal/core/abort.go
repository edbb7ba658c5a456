package core

import (
	"fmt"

	"repro/internal/machine"
)

// AbortToContinuation redirects a blocked thread so that its next
// dispatch runs cont instead of whatever it blocked with — the
// machine-independent half of thread_abort. The caller has already
// unhooked the thread from the wait queue that held it and cancelled its
// callouts; this operation only repoints the resumption.
//
// For an interrupt-style block the thread is stackless and the saved
// continuation is simply replaced — aborting costs one store, the paper's
// argument that continuations make cancellation cheap. (If the thread's
// post-block stack disposal is still pending, noteSelected or
// ThreadDispatch frees the stale stack exactly as for a normal wakeup.)
// For a process-model block the preserved call chain is discarded: the
// dedicated stack is reset to its base and a fresh frame running cont is
// planted, so the thread resumes on a clean stack. Either way the stack
// census is untouched.
//
// The caller makes the thread runnable afterwards (Setrun); the abort
// continuation runs in the thread's own context at its next dispatch.
func (k *Kernel) AbortToContinuation(t *Thread, cont *Continuation) {
	if cont == nil {
		panic("core: AbortToContinuation(nil)")
	}
	if t.state != StateWaiting {
		panic(fmt.Sprintf("core: AbortToContinuation on %v which is %v, not waiting", t, t.state))
	}
	k.Stats.Aborts++
	if t.Cont != nil {
		t.Cont = cont
		return
	}
	if t.Stack == nil {
		panic(fmt.Sprintf("core: AbortToContinuation: %v has neither continuation nor stack", t))
	}
	t.Stack.Reset()
	t.Stack.PushFrame(machine.Frame{
		Resume: resumeStep(cont.fn),
		Bytes:  64,
		Label:  "thread_abort",
	})
}
