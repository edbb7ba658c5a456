package kern_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// lifecycleRig drives one small machine through a seeded random sequence
// of thread-lifecycle operations for TestLifecycleOracles.
type lifecycleRig struct {
	t   *testing.T
	sys *kern.System
	rng *workload.RNG

	task      *kern.Task
	ports     []*ipc.Port
	set       *ipc.PortSet
	unstarted []*core.Thread
	started   []*core.Thread
	created   int
}

// boot (re)creates the rig's task, ports and port set on the machine's
// current incarnation.
func (r *lifecycleRig) boot() {
	r.task = r.sys.NewTask("life")
	r.ports = r.ports[:0]
	for i := 0; i < 4; i++ {
		r.ports = append(r.ports, r.sys.IPC.NewPort(fmt.Sprintf("p%d", i)))
	}
	r.set = r.sys.IPC.NewPortSet("set")
	r.sys.IPC.AddToSet(r.ports[2], r.set)
	r.sys.IPC.AddToSet(r.ports[3], r.set)
	r.unstarted, r.started = nil, nil
}

// program is a thread's random walk over the blocking operations whose
// bookkeeping the oracles check: continuation and process-model blocks,
// RPC stack handoffs, wakeups that race their block, timed receives that
// expire, port-set receives, sends that park on a full queue, yields and
// exits. Ports are looked up when an action is taken, so a destroyed port
// is seen dead.
func (r *lifecycleRig) program(rng *workload.RNG) core.UserProgram {
	sys := r.sys
	return core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := sys.IPC.Received(th); m != nil {
			sys.IPC.FreeMessage(m)
		}
		p := r.ports[rng.Intn(len(r.ports))]
		switch rng.Intn(11) {
		case 10:
			// A wakeup that races ahead of its block: latched while the
			// thread still runs, consumed by Block without a transfer.
			return core.Syscall("raced-wakeup", func(e *core.Env) {
				e.K.Setrun(th)
				e.K.SetState(th, core.StateWaiting)
				e.K.Block(e, stats.BlockInternal, chaosSleepDone,
					func(e2 *core.Env) { e2.K.ThreadSyscallReturn(e2, 0) }, 96, "raced-wakeup")
			})
		case 9:
			// RPC: a continuation-blocked receiver on p takes the stack
			// handoff, and the caller waits on another port for a reply
			// that only a timeout, abort or port death delivers.
			q := r.ports[rng.Intn(len(r.ports))]
			return core.Syscall("rpc", func(e *core.Env) {
				m := sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, q)
				sys.IPC.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: p, ReceiveFrom: q,
					RcvTimeout: machine.Duration(1000 * (1 + rng.Intn(300)))})
			})
		case 0:
			return core.Syscall("timed-recv", func(e *core.Env) {
				sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: p,
					RcvTimeout: machine.Duration(1000 * (1 + rng.Intn(300)))})
			})
		case 1:
			timeout := machine.Duration(0)
			if rng.Hit(5000) {
				timeout = machine.Duration(1000 * (1 + rng.Intn(300)))
			}
			return core.Syscall("set-recv", func(e *core.Env) {
				sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFromSet: r.set, RcvTimeout: timeout})
			})
		case 2:
			return core.Syscall("recv", func(e *core.Env) {
				sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: p})
			})
		case 3, 4:
			timeout := machine.Duration(0)
			if rng.Hit(5000) {
				timeout = machine.Duration(1000 * (1 + rng.Intn(300)))
			}
			return core.Syscall("send", func(e *core.Env) {
				m := sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, nil)
				sys.IPC.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: p, SndTimeout: timeout})
			})
		case 5:
			return core.Syscall("lock", func(e *core.Env) {
				sys.LockWait(e, 120, func(e2 *core.Env) { e2.K.ThreadSyscallReturn(e2, 0) })
			})
		case 6:
			return core.Action{Kind: core.ActYield}
		case 7:
			return core.RunFor(uint64(1 + rng.Intn(50_000)))
		default:
			return core.Exit()
		}
	})
}

// validate fails the test on the first broken invariant: core's waiting
// count against a registry scan, the registry's ID order and compaction,
// the pending-reap list, and ipc's per-thread registration index against
// a sweep of every waiter list.
func (r *lifecycleRig) validate(op string, i int) {
	r.t.Helper()
	if err := r.sys.K.Validate(); err != nil {
		r.t.Fatalf("op %d (%s): %v", i, op, err)
	}
}

// TestLifecycleOracles runs seeded random sequences of lifecycle
// operations — NewThread, Setrun, dispatcher steps (continuation and
// process-model blocks, timed receives expiring, port-set receives,
// full-queue sends, Halt and reaper passes), thread_abort, DestroyPort
// with waiters, and crash plus warm reboot — on both a continuation and a
// process-model kernel, and checks every lifecycle oracle after every
// operation and every step. A state write that bypassed
// core.Kernel.SetState into or out of StateWaiting, a halted thread
// missed by the pending-reap list, a late compaction, or a registration
// missing from its thread's index all fail here.
func TestLifecycleOracles(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		flavor := kern.MK40
		if seed%2 == 0 {
			flavor = kern.MK32
		}
		t.Run(fmt.Sprintf("%v/seed%d", flavor, seed), func(t *testing.T) {
			cfg := kern.Config{Flavor: flavor, Arch: machine.ArchDS3100}
			sys := kern.New(cfg)
			// A reboot announces the new incarnation on the wire, so the
			// NIC needs a peer; the peer itself is never driven.
			dev.Connect(sys.Net.NIC, kern.New(cfg).Net.NIC, 0)
			r := &lifecycleRig{t: t, sys: sys, rng: workload.NewRNG(seed)}
			r.boot()
			var steps, crashes, destroys int
			for i := 0; i < 600; i++ {
				switch op := r.rng.Intn(20); {
				case op < 4:
					th := r.task.NewThread(fmt.Sprintf("t%d", r.created), r.program(workload.NewRNG(r.rng.Next())), 5+r.rng.Intn(10))
					r.created++
					r.unstarted = append(r.unstarted, th)
					r.validate("new thread", i)
				case op < 7 && len(r.unstarted) > 0:
					j := r.rng.Intn(len(r.unstarted))
					th := r.unstarted[j]
					r.unstarted = append(r.unstarted[:j], r.unstarted[j+1:]...)
					r.started = append(r.started, th)
					sys.Start(th)
					r.validate("setrun", i)
				case op < 9 && len(r.started) > 0:
					sys.ThreadAbort(r.started[r.rng.Intn(len(r.started))])
					r.validate("thread_abort", i)
				case op == 9:
					j := r.rng.Intn(len(r.ports))
					p := r.ports[j]
					sys.K.TakeInterrupt("destroy-port", func(e *core.Env) { sys.IPC.DestroyPort(e, p) })
					r.ports[j] = sys.IPC.NewPort(fmt.Sprintf("p%d'", j))
					destroys++
					r.validate("destroy port", i)
				case op == 10 && r.rng.Hit(2500):
					sys.Crash(0)
					r.validate("crash", i)
					sys.Reboot()
					r.boot()
					crashes++
					r.validate("reboot", i)
				default:
					for n := 1 + r.rng.Intn(60); n > 0 && sys.K.Step(); n-- {
						steps++
						r.validate("step", i)
					}
				}
			}
			if steps == 0 || destroys == 0 || sys.Reaped == 0 || sys.K.Stats.Aborts == 0 {
				t.Fatalf("sequence too tame: %d steps, %d port destructions, %d reaped, %d aborted",
					steps, destroys, sys.Reaped, sys.K.Stats.Aborts)
			}
			t.Logf("%d steps, %d crashes, %d port destructions, %d reaped, %d aborted, %d blocked high-water",
				steps, crashes, destroys, sys.Reaped, sys.K.Stats.Aborts, sys.K.BlockedHighWater)
		})
	}
}
