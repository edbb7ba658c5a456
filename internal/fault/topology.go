// Topology faults: scheduled, deterministic degradations of the network
// fabric and of whole machines, as opposed to the per-packet
// probabilistic rules a Plan draws. A partition cuts every link between
// two machine groups for a window; a link fault degrades exactly one
// direction of one machine pair (packets the other way still flow, the
// classic gray-failure asymmetry); a gray fault multiplies one machine's
// cost-model time so it computes slower without being down.
//
// A Topology is immutable after construction and every query is a pure
// function of (machine indices, simulated time) — no generator state, no
// counters — so a single Topology is safely shared by every machine of a
// cluster under the parallel horizon-round driver.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
)

// Partition is one scheduled bidirectional split: for the window
// [At, At+Dur) no packet crosses between group A and group B (either
// direction). Machines in neither group are unaffected.
type Partition struct {
	A, B []int
	At   machine.Duration
	Dur  machine.Duration
}

// LinkMode discriminates what an asymmetric link fault does to the
// packets of its one degraded direction.
type LinkMode int

const (
	// LinkDrop discards every Src->Dst packet in the window.
	LinkDrop LinkMode = iota
	// LinkDelay holds every Src->Dst packet back by Extra.
	LinkDelay
)

func (m LinkMode) String() string {
	if m == LinkDelay {
		return "delay"
	}
	return "drop"
}

// LinkFault is one scheduled one-way degradation: packets from machine
// Src to machine Dst are dropped or delayed for [At, At+Dur); traffic
// Dst->Src is untouched.
type LinkFault struct {
	Src, Dst int
	Mode     LinkMode
	// Extra is the added one-way latency for LinkDelay.
	Extra machine.Duration
	At    machine.Duration
	Dur   machine.Duration
}

// Gray is one scheduled machine-wide slowdown: for [At, At+Dur) every
// cost the machine charges takes Factor times as long on the simulated
// clock. The machine is not down — it answers, just late — which is what
// makes gray failures harder on membership layers than crashes.
type Gray struct {
	Machine int
	Factor  float64
	At      machine.Duration
	Dur     machine.Duration
}

// Burst is one scheduled offered-load surge: for [At, At+Dur) open-loop
// load generators multiply their arrival rate by Factor (think gaps
// divide by it). It is the overload trigger — a demand-side fault,
// where gray/link are supply-side — and like them it is a certainty
// with an explicit window, touching no random stream.
type Burst struct {
	Factor float64
	At     machine.Duration
	Dur    machine.Duration
}

// inWindow reports whether now falls inside [at, at+dur).
func inWindow(now machine.Time, at, dur machine.Duration) bool {
	t := machine.Time(at)
	return now >= t && now-t < machine.Time(dur)
}

// Topology is the compiled schedule of every topology fault in a spec,
// shared read-only by all machines of a cluster.
type Topology struct {
	Partitions []Partition
	Links      []LinkFault
	Grays      []Gray
	Bursts     []Burst
}

// NewTopology compiles a spec's topology rules; nil when the spec has
// none, so callers can gate all enforcement on a nil check.
func NewTopology(spec Spec) *Topology {
	if len(spec.Partitions) == 0 && len(spec.Links) == 0 && len(spec.Grays) == 0 &&
		len(spec.Bursts) == 0 {
		return nil
	}
	return &Topology{
		Partitions: spec.Partitions,
		Links:      spec.Links,
		Grays:      spec.Grays,
		Bursts:     spec.Bursts,
	}
}

// splits reports whether a partition separates machines a and b (one in
// each group, either way around).
func (p *Partition) splits(a, b int) bool {
	return (contains(p.A, a) && contains(p.B, b)) ||
		(contains(p.B, a) && contains(p.A, b))
}

func contains(s []int, m int) bool {
	for _, v := range s {
		if v == m {
			return true
		}
	}
	return false
}

// CutAt reports whether a packet transmitted from machine src to machine
// dst at time now is severed: inside a partition window splitting the
// two, or inside a drop-mode link window for exactly that direction.
// Nil-safe.
func (t *Topology) CutAt(src, dst int, now machine.Time) bool {
	if t == nil {
		return false
	}
	for i := range t.Partitions {
		p := &t.Partitions[i]
		if inWindow(now, p.At, p.Dur) && p.splits(src, dst) {
			return true
		}
	}
	for i := range t.Links {
		l := &t.Links[i]
		if l.Mode == LinkDrop && l.Src == src && l.Dst == dst && inWindow(now, l.At, l.Dur) {
			return true
		}
	}
	return false
}

// ExtraDelay returns the added one-way latency for a src->dst packet at
// time now (delay-mode link faults; several stack). Nil-safe.
func (t *Topology) ExtraDelay(src, dst int, now machine.Time) machine.Duration {
	if t == nil {
		return 0
	}
	var extra machine.Duration
	for i := range t.Links {
		l := &t.Links[i]
		if l.Mode == LinkDelay && l.Src == src && l.Dst == dst && inWindow(now, l.At, l.Dur) {
			extra += l.Extra
		}
	}
	return extra
}

// Slowdown returns machine m's gray time multiplier at time now (1 when
// healthy; several windows multiply). Nil-safe.
func (t *Topology) Slowdown(m int, now machine.Time) float64 {
	if t == nil {
		return 1
	}
	f := 1.0
	for i := range t.Grays {
		g := &t.Grays[i]
		if g.Machine == m && inWindow(now, g.At, g.Dur) {
			f *= g.Factor
		}
	}
	return f
}

// BurstAt returns the offered-load multiplier at time now (1 when no
// burst window is active; overlapping windows multiply). Nil-safe.
func (t *Topology) BurstAt(now machine.Time) float64 {
	if t == nil {
		return 1
	}
	f := 1.0
	for i := range t.Bursts {
		b := &t.Bursts[i]
		if inWindow(now, b.At, b.Dur) {
			f *= b.Factor
		}
	}
	return f
}

// HasGray reports whether any gray window targets machine m — the
// installer only pays the per-charge multiplier hook on machines that
// need it.
func (t *Topology) HasGray(m int) bool {
	if t == nil {
		return false
	}
	for i := range t.Grays {
		if t.Grays[i].Machine == m {
			return true
		}
	}
	return false
}

// Windows renders the schedule, one line per fault in spec order — the
// report's static nemesis timeline. Deterministic (no map iteration).
func (t *Topology) Windows() []string {
	if t == nil {
		return nil
	}
	out := make([]string, 0, len(t.Partitions)+len(t.Links)+len(t.Grays))
	for _, p := range t.Partitions {
		out = append(out, fmt.Sprintf("partition %s | %s at %s for %s",
			groupStr(p.A), groupStr(p.B), fmtDur(p.At), fmtDur(p.Dur)))
	}
	for _, l := range t.Links {
		s := fmt.Sprintf("link %d->%d %v", l.Src, l.Dst, l.Mode)
		if l.Mode == LinkDelay {
			s += " +" + fmtDur(l.Extra)
		}
		out = append(out, fmt.Sprintf("%s at %s for %s", s, fmtDur(l.At), fmtDur(l.Dur)))
	}
	for _, g := range t.Grays {
		out = append(out, fmt.Sprintf("gray machine %d x%g at %s for %s",
			g.Machine, g.Factor, fmtDur(g.At), fmtDur(g.Dur)))
	}
	for _, b := range t.Bursts {
		out = append(out, fmt.Sprintf("burst x%g at %s for %s",
			b.Factor, fmtDur(b.At), fmtDur(b.Dur)))
	}
	return out
}

// rule renders the partition in the spec grammar.
func (p Partition) rule() string {
	return fmt.Sprintf("partition=%s|%s@%s+%s", groupStr(p.A), groupStr(p.B), fmtDur(p.At), fmtDur(p.Dur))
}

// rule renders the link fault in the spec grammar.
func (l LinkFault) rule() string {
	mode := l.Mode.String()
	if l.Mode == LinkDelay {
		mode += ":" + fmtDur(l.Extra)
	}
	return fmt.Sprintf("link=%d>%d:%s@%s+%s", l.Src, l.Dst, mode, fmtDur(l.At), fmtDur(l.Dur))
}

// rule renders the gray window in the spec grammar.
func (g Gray) rule() string {
	return fmt.Sprintf("gray=%d:%g@%s+%s", g.Machine, g.Factor, fmtDur(g.At), fmtDur(g.Dur))
}

// rule renders the burst window in the spec grammar.
func (b Burst) rule() string {
	return fmt.Sprintf("burst=%g@%s+%s", b.Factor, fmtDur(b.At), fmtDur(b.Dur))
}

// groupStr renders a machine group as dot-separated indices in ascending
// order (the spec grammar's own shape).
func groupStr(g []int) string {
	s := append([]int(nil), g...)
	sort.Ints(s)
	parts := make([]string, len(s))
	for i, m := range s {
		parts[i] = fmt.Sprint(m)
	}
	return strings.Join(parts, ".")
}

// fmtDur renders a duration compactly in ms or us, whichever is exact.
func fmtDur(d machine.Duration) string {
	if d%1e6 == 0 {
		return fmt.Sprintf("%dms", d/1e6)
	}
	return fmt.Sprintf("%dus", d/1e3)
}
