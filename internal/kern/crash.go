package kern

// Whole-machine crash and warm reboot. A crash is the robustness test the
// paper's thread representation makes cheap: because a blocked thread is a
// continuation pointer plus 28 bytes of scratch, capturing "what was every
// thread doing" for the panic record is a table walk, and dropping all
// in-flight state is core.Kernel.CrashReset rather than a stack unwind.
// The warm reboot re-runs the same boot sequence New uses, adopting the
// surviving NIC hardware, and announces a new incarnation so the reliable
// netmsg layer on both ends discards traffic that outlived the crash.
//
// Both crash and reboot are simulated-clock events, so the conservative
// horizon rounds of the parallel cluster driver order them exactly as the
// sequential driver does — byte-determinism is preserved for free.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// PanicRecord is the capture taken at the instant of a crash: the
// continuation table as diagnostic (§3.4's claim made executable), plus a
// census of what the machine was holding when it died.
type PanicRecord struct {
	// At is the simulated time of the crash; Incarnation the boot count
	// that died.
	At          machine.Time
	Incarnation uint32

	// Threads snapshots every live thread: name, state, and the
	// continuation it was blocked with.
	Threads []core.BlockedSnapshot

	// Ports counts undestroyed IPC ports; PendingIO device requests
	// accepted but unresolved; Unacked wire packets awaiting
	// acknowledgement across all links.
	Ports     int
	PendingIO int
	Unacked   int
}

// String renders the record the way a console panic would.
func (r *PanicRecord) String() string {
	return fmt.Sprintf("panic inc=%d at=%v: %d threads, %d ports, %d pending I/O, %d unacked",
		r.Incarnation, r.At, len(r.Threads), r.Ports, r.PendingIO, r.Unacked)
}

// NetTotals aggregates the netmsg counters a crash would otherwise lose:
// Crash folds each dying link's counters in, and the NetTotals method
// adds the live links on top, so reports span incarnations.
type NetTotals struct {
	Forwarded      uint64
	Delivered      uint64
	Dropped        uint64
	Retransmits    uint64
	AcksTx         uint64
	AcksRx         uint64
	DupsDropped    uint64
	Lost           uint64
	StaleDropped   uint64
	HeartbeatsTx   uint64
	HeartbeatsRx   uint64
	DeathsDetected uint64
	Recoveries     uint64
}

func (t *NetTotals) add(n *dev.Netmsg) {
	t.Forwarded += n.Forwarded
	t.Delivered += n.Delivered
	t.Dropped += n.Dropped
	t.Retransmits += n.Retransmits
	t.AcksTx += n.AcksTx
	t.AcksRx += n.AcksRx
	t.DupsDropped += n.DupsDropped
	t.Lost += n.Lost
	t.StaleDropped += n.StaleDropped
	t.HeartbeatsTx += n.HeartbeatsTx
	t.HeartbeatsRx += n.HeartbeatsRx
	t.DeathsDetected += n.DeathsDetected
	t.Recoveries += n.Recoveries
}

// NetTotals sums the netmsg counters across every link of every
// incarnation this machine has run.
func (s *System) NetTotals() NetTotals {
	t := s.priorNet
	for _, n := range s.Links {
		t.add(n)
	}
	return t
}

// UnackedLen reports the data packets this incarnation's links still
// await acknowledgement for.
func (s *System) UnackedLen() int {
	n := 0
	for _, l := range s.Links {
		n += l.UnackedLen()
	}
	return n
}

// ScheduleCrash arms a whole-machine crash at absolute simulated time at,
// rebooting rebootAfter later (never, when zero). The crash is an
// ordinary foreground clock event, so the parallel driver's horizon
// rounds order it deterministically against all other work.
func (s *System) ScheduleCrash(at machine.Time, rebootAfter machine.Duration) {
	s.K.Clock.Schedule(at, s.crashTimer, rebootAfter)
}

// crashTimer is ScheduleCrash's timer action; arg is the reboot delay.
func (s *System) crashTimer(rebootAfter any) { s.Crash(rebootAfter.(machine.Duration)) }

// rebootTimer is the warm reboot's timer action.
func (s *System) rebootTimer(any) { s.Reboot() }

// Crash kills the machine now: capture the panic record, drop every
// thread, stack and local timer, and leave the NICs discarding arrivals.
// Packets already on the wire still arrive (a crash cannot recall them)
// and die at the interrupt boundary. When rebootAfter is nonzero a warm
// reboot is scheduled; it is the only local clock event that survives
// the purge, because it is armed after it.
func (s *System) Crash(rebootAfter machine.Duration) {
	if s.Down {
		return
	}
	rec := &PanicRecord{
		At:          s.K.Clock.Now(),
		Incarnation: s.Incarnation,
		Threads:     s.K.SnapshotThreads(),
		Ports:       s.IPC.LivePorts(),
	}
	if s.Dev != nil {
		rec.PendingIO = s.Dev.PendingIO()
	}
	rec.Unacked = s.UnackedLen()
	s.PanicRecord = rec
	if r := s.K.Obs; r != nil {
		r.EmitArg(obs.MachineCrash, 0,
			fmt.Sprintf("%d threads, %d ports, %d pending I/O, %d unacked",
				len(rec.Threads), rec.Ports, rec.PendingIO, rec.Unacked),
			int(s.Incarnation))
	}
	s.CrashCount++
	s.Down = true
	s.topoChanged = true
	for _, n := range s.Links {
		n.NIC.SetDown(true)
	}
	s.K.Clock.PurgeLocal()
	s.K.CrashReset()
	// The dead incarnation's run queues still name dead threads; replace
	// the scheduler immediately so no dispatch can touch them, whether or
	// not a reboot ever comes.
	rq := sched.New(s.cfg.Quantum)
	s.K.Sched = rq
	s.Sched = rq
	s.tasks = nil
	s.Callout, s.Reaper, s.contReaper = nil, nil, nil
	if rebootAfter > 0 {
		s.K.Clock.Schedule(s.K.Clock.Now()+rebootAfter, s.rebootTimer, nil)
	}
}

// Reboot warm-boots a crashed machine under a new incarnation number: the
// boot sequence runs again on the same kernel object (fresh scheduler,
// device, VM, IPC and exception substrates; fresh internal threads),
// adopting the NIC hardware that survived the crash. Each link keeps its
// configured reliability parameters, stamps the new incarnation, and
// announces it to the peer so stale-traffic rejection and failback start
// immediately. Finally every registered service installer re-runs, in
// registration order, so a workload can re-create its servers.
func (s *System) Reboot() {
	if !s.Down {
		return
	}
	old := s.Links
	nics := make([]*dev.NIC, len(old))
	for i, n := range old {
		nics[i] = n.NIC
		s.priorNet.add(n)
	}
	s.Incarnation++
	s.Down = false
	s.topoChanged = true
	s.bootSubstrates(nics)
	for i, n := range s.Links {
		o := old[i]
		n.Reliable = o.Reliable
		n.RexmitTimeout = o.RexmitTimeout
		n.RexmitMax = o.RexmitMax
		n.DeadAfter = o.DeadAfter
		n.NIC.SetDown(false)
		n.SetIncarnation(s.Incarnation)
		n.AnnounceIncarnation()
	}
	s.Reboots++
	if r := s.K.Obs; r != nil {
		r.EmitArg(obs.MachineReboot, 0, "", int(s.Incarnation))
	}
	for _, svc := range s.services {
		svc.install(s)
	}
}
