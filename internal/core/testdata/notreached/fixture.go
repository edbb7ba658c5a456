// Package notreached is the fixture of TestNotReached: exactly one call
// below is followed by more code after it may have transferred control.
package notreached

import "repro/internal/core"

// Broken means to fail the system call when failed is set, but the
// missing return lets the success path run after the transfer.
func Broken(e *core.Env, failed bool) {
	if failed {
		// The reported call: the second ThreadSyscallReturn below would
		// run in no thread's context and overwrite the first transfer.
		e.Trace(0, "failing")
		e.K.ThreadSyscallReturn(e, 1)
	}
	e.K.ThreadSyscallReturn(e, 0)
}

// Fine shows the accepted forms: a call followed by return, a call
// followed by a transfer guard, and a call in tail position.
func Fine(e *core.Env, failed bool) {
	if failed {
		e.K.ThreadSyscallReturn(e, 1)
		return
	}
	Broken(e, failed)
	if e.Transferred() {
		return
	}
	e.K.ThreadSyscallReturn(e, 0)
}
