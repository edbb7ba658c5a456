package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/machine"
)

func TestDaemonDrainsAllKicks(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
	d := NewDaemon(sys, "net", machine.Cost{Instrs: 100})
	for i := 0; i < 10; i++ {
		d.Kick()
	}
	sys.Run(0)
	if d.Wakeups != 10 || d.Pending() != 0 {
		t.Fatalf("wakeups=%d pending=%d, want 10/0", d.Wakeups, d.Pending())
	}
	if d.Thread.State() != core.StateWaiting {
		t.Fatalf("daemon state = %v", d.Thread.State())
	}
}

func TestDaemonDrainsKicksUnderLoad(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
	d := NewDaemon(sys, "net", machine.Cost{Instrs: 100})
	task := sys.NewTask("kicker")
	var kicks int
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if kicks >= 50 {
			return core.Exit()
		}
		kicks++
		d.Kick()
		return core.RunFor(100_000)
	})
	sys.Start(task.NewThread("main", prog, 10))
	sys.Run(0)
	if d.Wakeups != 50 || d.Pending() != 0 {
		t.Fatalf("wakeups=%d pending=%d, want 50/0", d.Wakeups, d.Pending())
	}
}
