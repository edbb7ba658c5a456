// Package lrpc implements the paper's §4 extension: a thread may register
// an overriding user-level continuation for system call returns,
// mimicking the LRPC transfer protocol within the continuation framework.
//
// By default a thread trapping into the kernel generates a continuation
// that transfers control back to the same user-level context in which the
// trap occurred. A server thread that registers an override instead
// returns from mach_msg directly at its dispatch entry point: the kernel
// skips restoring the server's saved user register state, and the server
// may discard its user-level stack while blocked waiting for the next
// request — the properties that make LRPC fast, without migrating
// threads between address spaces.
package lrpc

import (
	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
)

// Entry is a registered user-level continuation: the dispatch routine a
// server thread resumes at when its receive completes. It observes the
// received message; the thread's program then runs from the entry state.
type Entry func(m *ipc.Message)

// UserStackBytes is the user-level stack a blocked server thread retains
// without the extension and may discard with it, for space accounting.
const UserStackBytes = 16 * 1024

// LRPC manages registered overriding return continuations on one system.
type LRPC struct {
	sys     *kern.System
	entries map[int]Entry // thread ID -> dispatch entry

	// OverriddenReturns counts returns that took a registered entry.
	OverriddenReturns uint64

	// DiscardedUserStacks counts user-level stacks registered threads
	// can shed while blocked.
	DiscardedUserStacks int
}

// New installs the extension on a system.
func New(sys *kern.System) *LRPC {
	l := &LRPC{
		sys:     sys,
		entries: make(map[int]Entry),
	}
	sys.IPC.UserReturnHook = l.hook
	return l
}

// Register sets the thread's overriding user-level continuation. The
// thread's subsequent mach_msg receives return at entry instead of the
// post-trap context, and its user stack is considered discardable while
// it blocks.
func (l *LRPC) Register(t *core.Thread, entry Entry) {
	if _, dup := l.entries[t.ID]; !dup {
		l.DiscardedUserStacks++
	}
	l.entries[t.ID] = entry
}

// Unregister restores the default return behaviour.
func (l *LRPC) Unregister(t *core.Thread) {
	if _, ok := l.entries[t.ID]; ok {
		l.DiscardedUserStacks--
	}
	delete(l.entries, t.ID)
}

// Registered reports whether a thread has an override.
func (l *LRPC) Registered(t *core.Thread) bool {
	_, ok := l.entries[t.ID]
	return ok
}

// registerDiscount is the user register restore the override skips: the
// callee-saved file the normal exit reloads.
func registerDiscount(model *machine.CostModel) machine.Cost {
	regs := uint64(model.CalleeSavedRegs)
	return machine.Cost{Instrs: 2 * regs, Loads: regs}
}

// SavedPerReturn reports the work the override avoids per return, in
// simulated microseconds.
func (l *LRPC) SavedPerReturn() float64 {
	return l.sys.K.Model.TimeMicros(registerDiscount(l.sys.K.Model))
}

// hook implements ipc.UserReturnHook: transfer out of the kernel to the
// registered entry rather than the trapped context. When the thread has
// an override it transfers control and returns true.
func (l *LRPC) hook(e *core.Env, t *core.Thread, m *ipc.Message) bool {
	entry, ok := l.entries[t.ID]
	if !ok {
		return false
	}
	l.OverriddenReturns++
	entry(m)
	l.sys.K.ThreadSyscallReturnOverride(e, ipc.MsgSuccess, registerDiscount(l.sys.K.Model))
	return true
}

// Server is a Program for an LRPC-style server thread: it blocks in
// mach_msg and every request arrives through the registered dispatch
// entry.
type Server struct {
	l     *LRPC
	sys   *kern.System
	port  *ipc.Port
	reply func(req *ipc.Message) *ipc.Message

	// Handled counts requests served.
	Handled uint64

	pending *ipc.Message
}

// NewServer creates an LRPC server on port; reply builds each response.
// Bind the spawned thread before starting it.
func (l *LRPC) NewServer(port *ipc.Port, reply func(req *ipc.Message) *ipc.Message) *Server {
	return &Server{l: l, sys: l.sys, port: port, reply: reply}
}

// Bind registers the server thread's dispatch entry.
func (s *Server) Bind(t *core.Thread) {
	s.l.Register(t, func(m *ipc.Message) {
		// The dispatch entry: the received request is in hand when the
		// thread resumes in user space.
		s.pending = m
	})
}

// Next implements core.UserProgram.
func (s *Server) Next(e *core.Env, t *core.Thread) core.Action {
	// Without a registered entry, requests arrive the ordinary way
	// (copied out to the receive buffer).
	if m := s.sys.IPC.Received(t); m != nil {
		s.pending = m
	}
	if s.pending == nil {
		return core.Syscall("mach_msg(receive)", func(e *core.Env) {
			s.sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port})
		})
	}
	req := s.pending
	s.pending = nil
	s.Handled++
	rep := s.reply(req)
	return core.Syscall("mach_msg(reply+receive)", func(e *core.Env) {
		s.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send: rep, SendTo: req.Reply, ReceiveFrom: s.port,
		})
	})
}
