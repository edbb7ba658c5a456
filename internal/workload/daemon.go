package workload

import (
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Daemon is an internal kernel service thread (a network handler, an AFS
// callback dispatcher, a device postprocessor) written in the paper's
// §2.2 style: an infinite work loop realised by blocking with a
// continuation whose body is the loop itself. Its blocks populate Table
// 1's "internal threads" row.
type Daemon struct {
	sys    *kern.System
	Thread *core.Thread
	cont   *core.Continuation

	// workCost is charged per wakeup.
	workCost machine.Cost

	// pending counts kicks not yet absorbed by a wakeup pass.
	pending int

	// Wakeups counts processed work batches.
	Wakeups uint64
}

// NewDaemon creates and starts an internal kernel daemon.
func NewDaemon(sys *kern.System, name string, workCost machine.Cost) *Daemon {
	d := &Daemon{sys: sys, workCost: workCost}
	d.cont = core.NewContinuation(name+"_continue", d.loop)
	d.Thread = sys.K.NewThread(core.ThreadSpec{
		Name:     core.NameOf(name),
		SpaceID:  0,
		Internal: true,
		Priority: 28,
		Start:    d.cont,
	})
	// The daemon starts blocked; its first kick wakes it.
	return d
}

// Kick queues one unit of work and wakes the daemon.
func (d *Daemon) Kick() {
	d.pending++
	if d.Thread.State() == core.StateWaiting {
		d.sys.K.Setrun(d.Thread)
	}
}

// itemGap is the pause between queued work items: the daemon handles one
// interrupt's worth of work per wakeup and waits for the device to raise
// the next one.
const itemGap = machine.Duration(30 * 1000) // 30 us

// loop processes one work item per pass, then blocks again with itself
// as the continuation (tail recursion, §2.2). Each item therefore costs
// one internal-thread block with a stack discard — the behaviour Table
// 1's "internal threads" row tallies. Transfers control.
func (d *Daemon) loop(e *core.Env) {
	t := e.Cur()
	if d.pending > 0 {
		e.Charge(d.workCost)
		d.pending--
		d.Wakeups++
	}
	if d.pending > 0 {
		// More device work queued: wait for the next interrupt.
		e.K.WakeAt(e.K.Clock.Now()+itemGap, t)
	}
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "daemon: idle"
	d.sys.K.Block(e, stats.BlockInternal, d.cont, nil, 256, "daemon-wait")
}

// Pending reports queued work items not yet processed.
func (d *Daemon) Pending() int { return d.pending }
