// dos_emulator demonstrates the exception-handling fast path of §2.5: an
// emulated MS-DOS program raises an exception for every privileged
// instruction; a user-level exception server in the same address space
// emulates the instruction and replies; the kernel moves control between
// them by stack handoff and continuation recognition, so the whole
// exchange never queues a message or context switches.
package main

import (
	"fmt"

	"repro/mach"
)

func main() {
	sys := mach.New(
		mach.WithKernel(mach.MK40),
		mach.WithMachine(mach.Toshiba5200), // the paper ran DOS tests here
	)

	emu := sys.NewTask("dos-emulator")
	excPort := sys.NewPort("exception-port")

	// The exception server: receive an exception RPC, emulate the
	// instruction (a little user work), reply so the kernel restarts the
	// game.
	var handled int
	var pending *mach.Message
	emu.Spawn("handler", mach.ProgramFunc(func(e *mach.Env, t *mach.Thread) mach.Action {
		if m := sys.Received(t); m != nil {
			pending = m
		}
		if pending == nil {
			return mach.Syscall("mach_msg(receive)", func(e *mach.Env) {
				sys.MachMsg(e, mach.MsgOptions{ReceiveFrom: excPort})
			})
		}
		req := pending
		pending = nil
		info := req.Body.(*mach.ExcInfo)
		handled++
		if handled <= 3 {
			fmt.Printf("  handler: emulating privileged instruction (code %d) for %s\n",
				info.Code, info.Thread.Name())
		}
		return mach.Syscall("mach_msg(reply+receive)", func(e *mach.Env) {
			reply := sys.NewMessage(1, 24, nil, nil)
			sys.MachMsg(e, mach.MsgOptions{Send: reply, SendTo: req.Reply, ReceiveFrom: excPort})
		})
	}), 21)

	// The game: bursts of emulated CPU, a privileged instruction every
	// so often.
	const traps = 500
	raised := 0
	game := emu.SpawnSuspended("wing-commander", mach.ProgramFunc(func(e *mach.Env, t *mach.Thread) mach.Action {
		if raised >= traps {
			return mach.Exit()
		}
		raised++
		if raised%2 == 1 {
			return mach.RunFor(5000)
		}
		return mach.RaiseException(raised)
	}), 10)
	sys.SetExceptionPort(game, excPort)
	sys.Resume(game)

	elapsed := sys.Run()
	st := sys.Stats()
	fmt.Printf("\nemulated %d privileged instructions in %.2f simulated ms\n",
		handled, elapsed.Micros()/1000)
	fmt.Printf("per trap incl. game + emulation work: %.0f us (bare exception RPC\n"+
		"on this machine: 525 us in the paper; see cmd/tables for the null case)\n",
		elapsed.Micros()/float64(handled))
	rows, _ := sys.BlockBreakdown()
	fmt.Printf("\nblocks: %d exception, %d receive — all with stack discard (%d/%d)\n",
		rows["exception"], rows["message receive"], st.StackDiscards, st.TotalBlocks)
	fmt.Printf("handoffs %d, recognitions %d: the exchange runs on one shared stack\n",
		st.Handoffs, st.Recognitions)
}
