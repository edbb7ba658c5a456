package kern

// The per-machine watchdog rides the existing DebugChecks invariant
// sweep: after every dispatcher step it looks for the two ways a
// simulated machine can wedge without tripping a structural invariant —
// a stall (runnable threads but no dispatch progress as simulated time
// passes) and a wait-for deadlock over the IPC port waiters. The
// deadlock report names each thread's saved continuation, which is the
// paper's diagnostic argument in executable form: the continuation table
// already says what every blocked thread is doing, so the blocking cycle
// can be printed without unwinding a single stack.

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// DefaultStallThreshold is how long the run queue may hold work with no
// dequeue or handoff before the stall detector fires. Generous: real
// dispatch gaps are nanoseconds of simulated time.
const DefaultStallThreshold = machine.Duration(50 * 1000 * 1000) // 50 ms

// Watchdog is the stall and deadlock detector for one machine. It is
// registered in the kernel's Invariants list, so it runs only when
// DebugChecks is enabled, and it survives warm reboots — bootSubstrates
// re-registers it on the fresh kernel state.
type Watchdog struct {
	sys *System

	// StallThreshold overrides DefaultStallThreshold when nonzero.
	StallThreshold machine.Duration

	lastProgress   uint64
	lastProgressAt machine.Time
	// armed records that the previous check already saw this same queue
	// stuck: the stall clock starts at the first stuck observation, not
	// at the last progress. The distinction matters because the clock
	// advances in jumps — a single long jump (retransmit backoff, warm
	// reboot) may deliver the event that wakes a thread, and that thread
	// has then been runnable for an instant, not for the whole jump.
	armed bool

	// Stalls and Deadlocks count detector firings; LastCycle keeps the
	// most recent deadlock's named cycle for reports and tests.
	Stalls    uint64
	Deadlocks uint64
	LastCycle []string
}

// EnableWatchdog installs the watchdog (idempotent) and returns it. The
// checks fire through core.Kernel.PostDispatchCheck, so the caller must
// also set K.DebugChecks for them to run.
func (s *System) EnableWatchdog() *Watchdog {
	if s.Watchdog == nil {
		s.Watchdog = &Watchdog{sys: s}
		s.Watchdog.register()
	}
	return s.Watchdog
}

// register hooks the watchdog into the kernel's invariant sweep and
// resets the progress baseline; called at EnableWatchdog and again by
// every warm reboot (CrashReset clears the Invariants list).
func (w *Watchdog) register() {
	s := w.sys
	w.lastProgress = 0
	w.lastProgressAt = s.K.Clock.Now()
	w.armed = false
	s.K.Invariants = append(s.K.Invariants, w.Check)
}

func (w *Watchdog) threshold() machine.Duration {
	if w.StallThreshold != 0 {
		return w.StallThreshold
	}
	return DefaultStallThreshold
}

// Check is one watchdog pass; the invariant sweep runs it after every
// dispatcher step, and tests may call it directly. A non-nil return
// turns the hang into an immediate, named panic under DebugChecks.
func (w *Watchdog) Check() error {
	s := w.sys
	if s.Down {
		// A crashed machine is idle by definition, not stalled.
		w.lastProgressAt = s.K.Clock.Now()
		w.armed = false
		return nil
	}
	if cycle := s.IPC.FindDeadlock(); cycle != nil {
		w.Deadlocks++
		w.LastCycle = append(w.LastCycle[:0], cycle...)
		return fmt.Errorf("watchdog: deadlock cycle: %s", strings.Join(cycle, " -> "))
	}
	progress := s.Sched.Dequeues + s.K.Stats.Handoffs
	now := s.K.Clock.Now()
	if progress != w.lastProgress || s.Sched.Len() == 0 {
		w.lastProgress = progress
		w.lastProgressAt = now
		w.armed = false
		return nil
	}
	if !w.armed {
		// First sight of this stuck queue — start the stall clock here.
		w.armed = true
		w.lastProgressAt = now
		return nil
	}
	if now-w.lastProgressAt > w.threshold() {
		w.Stalls++
		names := make([]string, 0, s.Sched.Len())
		for _, t := range s.Sched.Queued() {
			names = append(names, t.Name().String())
		}
		cur := "idle"
		for _, p := range s.K.Procs {
			if p.Cur != nil {
				cur = p.Cur.Name().String()
			}
		}
		return fmt.Errorf("watchdog: stall: %d threads runnable [%s] behind %s (inc %d), no dispatch progress since %v",
			s.Sched.Len(), strings.Join(names, ", "), cur, s.Incarnation, w.lastProgressAt)
	}
	return nil
}
