package ipc_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ipc"
)

// mustPanic runs f and requires it to panic with exactly want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want %q", want)
		}
		if got := fmt.Sprint(r); got != want {
			t.Fatalf("panic %q; want %q", got, want)
		}
	}()
	f()
}

// TestKernelSinkMustTransfer pins send's check on a kernel-received
// port: the sink runs in the sender's context and must transfer control.
func TestKernelSinkMustTransfer(t *testing.T) {
	k, x := newIPCKernel(t, ipc.StyleMK40)
	sink := x.NewPort("sink")
	sink.KernelSink = func(e *core.Env, msg *ipc.Message, opts ipc.MsgOptions) {}
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		return core.Syscall("send", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{Send: x.NewMessage(1, ipc.HeaderBytes, nil, nil), SendTo: sink})
		})
	})
	k.Setrun(k.NewThread(core.ThreadSpec{Name: "sender", SpaceID: 1, Program: prog}))
	mustPanic(t, "ipc: kernel sink returned instead of transferring control", func() { k.Run(0) })
}

// TestUserReturnHookMustTransfer pins copy-out's check on the §4
// override hook: a hook that claims the return (true) must have
// transferred control.
func TestUserReturnHookMustTransfer(t *testing.T) {
	k, x := newIPCKernel(t, ipc.StyleMK40)
	x.UserReturnHook = func(e *core.Env, th *core.Thread, m *ipc.Message) bool { return true }
	server, reply := x.NewPort("server"), x.NewPort("reply")
	srv := &rpcServer{x: x, port: server}
	cli := &rpcClient{x: x, server: server, reply: reply, count: 1}
	k.Setrun(k.NewThread(core.ThreadSpec{Name: "server", SpaceID: 2, Program: srv}))
	k.Setrun(k.NewThread(core.ThreadSpec{Name: "client", SpaceID: 1, Program: cli}))
	mustPanic(t, "ipc: user return hook returned instead of transferring control", func() { k.Run(0) })
}
