package dev_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/stats"
)

// TestIoDoneInlineMustTransfer pins the io_done thread's check on a
// recognized completion: the request's Inline body runs as the waiter
// and must transfer control.
func TestIoDoneInlineMustTransfer(t *testing.T) {
	sys := bootMK40(t)
	cont := core.NewContinuation("rogue_io_continue", func(e *core.Env) {
		e.K.ThreadSyscallReturn(e, 0)
	})
	task := sys.NewTask("rogue")
	issued := false
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if issued {
			return core.Exit()
		}
		issued = true
		return core.Syscall("rogue_io", func(e *core.Env) {
			th := e.Cur()
			d := sys.Dev.Open(e, "disk")
			d.Submit(&dev.Request{Label: "rogue", Bytes: 512, Waiter: th, Expect: cont,
				Inline: func(*core.Env) {}})
			e.K.SetState(th, core.StateWaiting)
			e.K.Block(e, stats.BlockDeviceIO, cont, nil, 0, "rogue-io")
		})
	})
	sys.Start(task.NewThread("rogue", prog, 10))
	defer func() {
		want := "dev: io_done inline completion returned"
		if got := fmt.Sprint(recover()); got != want {
			t.Fatalf("panic %q; want %q", got, want)
		}
	}()
	sys.Run(0)
}
