// Package fault provides seeded, deterministic fault injection for the
// simulated machines: device request failures and latency spikes, and
// NIC packet drop, duplication and delay (reordering). A Plan is a rule
// set plus its own SplitMix64 generator, so a given (seed, spec) pair
// produces the same fault sequence on every run — the property the CI
// determinism smoke diffs for.
//
// The plan is purely advisory: subsystems consult it at well-defined
// points (a device starting or completing a request, a NIC putting a
// packet on the wire) and count what they injected. All methods are safe
// on a nil *Plan and report "no fault", so call sites need no guards.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/machine"
)

// Spec is the parsed rule set of a fault plan. Probabilities are in
// [0, 1]; zero disables a rule.
type Spec struct {
	// DeviceFailProb is the probability that a fault-eligible device
	// request completes with DevIOError instead of data.
	DeviceFailProb float64
	// DeviceSlowProb and DeviceSlowExtra inject latency spikes: with the
	// given probability a request's service time grows by the extra.
	DeviceSlowProb  float64
	DeviceSlowExtra machine.Duration
	// DropProb is the probability a transmitted packet vanishes on the
	// wire.
	DropProb float64
	// DupProb is the probability a transmitted packet arrives twice.
	DupProb float64
	// DelayProb and DelayExtra hold a packet back on the wire, letting a
	// later transmission overtake it (reordering).
	DelayProb  float64
	DelayExtra machine.Duration

	// Crashes lists whole-machine crash events. Unlike the probabilistic
	// rules above, a crash is a scheduled certainty: machine M halts at
	// simulated offset At and (optionally) warm-reboots RebootAfter later.
	// The machine index is interpreted by the workload that boots the
	// cluster, so one spec string can describe a multi-machine plan.
	Crashes []Crash

	// Partitions, Links, Grays and Bursts are the scheduled topology
	// faults (see topology.go): bidirectional splits between machine
	// groups, asymmetric one-way link degradations, machine-wide
	// slowdowns, and offered-load surges. Like Crashes they are
	// certainties with explicit windows, not probabilistic draws, so a
	// spec carrying only topology rules keeps every machine's random
	// stream untouched.
	Partitions []Partition
	Links      []LinkFault
	Grays      []Gray
	Bursts     []Burst
}

// Crash is one scheduled whole-machine failure.
type Crash struct {
	// Machine is the cluster machine index that dies.
	Machine int
	// At is the simulated time offset of the crash.
	At machine.Duration
	// RebootAfter is the downtime before the warm reboot; zero means the
	// machine stays dead for the rest of the run.
	RebootAfter machine.Duration
}

// Zero reports whether the spec injects nothing.
func (s Spec) Zero() bool {
	return s.DeviceFailProb == 0 && s.DeviceSlowProb == 0 &&
		s.DropProb == 0 && s.DupProb == 0 && s.DelayProb == 0 &&
		len(s.Crashes) == 0 &&
		len(s.Partitions) == 0 && len(s.Links) == 0 && len(s.Grays) == 0 &&
		len(s.Bursts) == 0
}

// ParseSpec parses a comma-separated rule list:
//
//	devfail=0.05,devslow=0.1:2ms,drop=0.1,dup=0.02,delay=0.05:1ms
//
// Rules with a duration component (devslow, delay) take "prob:duration",
// where the duration uses Go syntax ("2ms", "400us"). Omitted durations
// default to 2ms.
//
// The scheduled (non-probabilistic) rules are certainties with explicit
// windows; each may repeat:
//
//	crash=M@T[:reboot+N]        kill machine M at T, warm-reboot N later
//	partition=A|B@T+dur         cut all links between machine groups A
//	                            and B (dot-separated indices, e.g.
//	                            partition=1|0.2.3@40ms+30ms)
//	link=S>D:drop@T+dur         drop every packet S->D in the window
//	link=S>D:delay:X@T+dur      delay every packet S->D by X
//	gray=M:F@T+dur              stretch machine M's compute time by
//	                            factor F (e.g. gray=1:8@40ms+30ms)
//	burst=F@T+dur               multiply open-loop offered load by
//	                            factor F — the overload trigger
//	                            (e.g. burst=4@30ms+30ms)
//
// Every number must be finite. Gray and burst factors lie in
// (0, MaxFactor], and so does the product of the factors of windows that
// overlap (on one machine for gray, cluster-wide for burst).
//
// Errors name the offending rule by index and text, and a probabilistic
// key may appear at most once (a repeated drop= is rejected, not
// silently overwritten).
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	seen := make(map[string]bool)
	for i, rule := range strings.Split(s, ",") {
		rule = strings.TrimSpace(rule)
		fail := func(format string, args ...any) (Spec, error) {
			return Spec{}, fmt.Errorf("fault: rule %d (%q): %s", i, rule, fmt.Sprintf(format, args...))
		}
		key, val, ok := strings.Cut(rule, "=")
		if !ok {
			return fail("not key=value")
		}
		switch key {
		case "crash":
			c, err := ParseCrash(val)
			if err != nil {
				return fail("%s", strings.TrimPrefix(err.Error(), "fault: "))
			}
			spec.Crashes = append(spec.Crashes, c)
			continue
		case "partition":
			p, err := parsePartition(val)
			if err != nil {
				return fail("%v", err)
			}
			spec.Partitions = append(spec.Partitions, p)
			continue
		case "link":
			l, err := parseLink(val)
			if err != nil {
				return fail("%v", err)
			}
			spec.Links = append(spec.Links, l)
			continue
		case "gray":
			g, err := parseGray(val)
			if err != nil {
				return fail("%v", err)
			}
			spec.Grays = append(spec.Grays, g)
			continue
		case "burst":
			b, err := parseBurst(val)
			if err != nil {
				return fail("%v", err)
			}
			spec.Bursts = append(spec.Bursts, b)
			continue
		}
		if seen[key] {
			return fail("duplicate %s rule (earlier value would be silently lost)", key)
		}
		seen[key] = true
		probPart, durPart, hasDur := strings.Cut(val, ":")
		prob, err := strconv.ParseFloat(probPart, 64)
		if err != nil || !(prob >= 0 && prob <= 1) { // NaN fails both
			return fail("needs a probability in [0,1]")
		}
		extra := machine.Duration(2 * 1000 * 1000) // 2 ms default
		if hasDur {
			d, err := time.ParseDuration(durPart)
			if err != nil || d < 0 {
				return fail("bad duration %q", durPart)
			}
			extra = machine.Duration(d.Nanoseconds())
		}
		switch key {
		case "devfail":
			spec.DeviceFailProb = prob
		case "devslow":
			spec.DeviceSlowProb = prob
			spec.DeviceSlowExtra = extra
		case "drop":
			spec.DropProb = prob
		case "dup":
			spec.DupProb = prob
		case "delay":
			spec.DelayProb = prob
			spec.DelayExtra = extra
		default:
			return fail("unknown rule key %q", key)
		}
	}
	// Overlapping windows multiply. The product changes only where a
	// window starts or ends (windows are half-open, so a window is out of
	// the product at its end), and a factor below 1 that ends raises it,
	// so it is checked at both edges of every window.
	topo := NewTopology(spec)
	for _, g := range spec.Grays {
		for _, at := range []machine.Time{g.At, g.At + g.Dur} {
			if f := topo.Slowdown(g.Machine, at); f > MaxFactor {
				return Spec{}, fmt.Errorf("fault: rule %q: overlapping gray windows on machine %d multiply to %g at %v, past %d",
					g.rule(), g.Machine, f, time.Duration(at), MaxFactor)
			}
		}
	}
	for _, b := range spec.Bursts {
		for _, at := range []machine.Time{b.At, b.At + b.Dur} {
			if f := topo.BurstAt(at); f > MaxFactor {
				return Spec{}, fmt.Errorf("fault: rule %q: overlapping burst windows multiply to %g at %v, past %d",
					b.rule(), f, time.Duration(at), MaxFactor)
			}
		}
	}
	return spec, nil
}

// MaxFactor bounds gray slowdown and burst load factors. A gray window
// stretches every charge on its machine by its factor, and a burst
// divides every think gap by it; far past this bound a stretched charge
// overflows the simulated clock, and a burst floods the run with more
// sessions than memory holds.
const MaxFactor = 1000

// validFactor reports whether f is a usable gray or burst factor: in
// (0, MaxFactor], which excludes NaN and both infinities.
func validFactor(f float64) bool { return f > 0 && f <= MaxFactor }

// parseWindow parses the trailing "@T+dur" of a scheduled topology rule,
// returning the rule head (everything before the @) and the window.
func parseWindow(val string) (head string, at, dur machine.Duration, err error) {
	head, win, ok := strings.Cut(val, "@")
	if !ok {
		return "", 0, 0, fmt.Errorf("wants a @T+dur window")
	}
	atPart, durPart, ok := strings.Cut(win, "+")
	if !ok {
		return "", 0, 0, fmt.Errorf("window %q wants T+dur", win)
	}
	t, err := time.ParseDuration(atPart)
	if err != nil || t < 0 {
		return "", 0, 0, fmt.Errorf("bad window start %q", atPart)
	}
	d, err := time.ParseDuration(durPart)
	if err != nil || d <= 0 {
		return "", 0, 0, fmt.Errorf("bad window duration %q", durPart)
	}
	return head, machine.Duration(t.Nanoseconds()), machine.Duration(d.Nanoseconds()), nil
}

// parseGroup parses a dot-separated machine-index list ("0.2.3").
func parseGroup(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty machine group")
	}
	parts := strings.Split(s, ".")
	g := make([]int, 0, len(parts))
	for _, p := range parts {
		m, err := strconv.Atoi(p)
		if err != nil || m < 0 {
			return nil, fmt.Errorf("bad machine index %q", p)
		}
		g = append(g, m)
	}
	return g, nil
}

// parsePartition parses "A|B@T+dur" with A and B dot-separated machine
// groups.
func parsePartition(val string) (Partition, error) {
	var p Partition
	head, at, dur, err := parseWindow(val)
	if err != nil {
		return p, err
	}
	aPart, bPart, ok := strings.Cut(head, "|")
	if !ok {
		return p, fmt.Errorf("wants groups A|B before the window")
	}
	if p.A, err = parseGroup(aPart); err != nil {
		return p, err
	}
	if p.B, err = parseGroup(bPart); err != nil {
		return p, err
	}
	for _, m := range p.A {
		if contains(p.B, m) {
			return p, fmt.Errorf("machine %d is in both groups", m)
		}
	}
	p.At, p.Dur = at, dur
	return p, nil
}

// parseLink parses "S>D:drop@T+dur" or "S>D:delay:X@T+dur".
func parseLink(val string) (LinkFault, error) {
	var l LinkFault
	head, at, dur, err := parseWindow(val)
	if err != nil {
		return l, err
	}
	pair, modePart, ok := strings.Cut(head, ":")
	if !ok {
		return l, fmt.Errorf("wants S>D:drop or S>D:delay[:X]")
	}
	sPart, dPart, ok := strings.Cut(pair, ">")
	if !ok {
		return l, fmt.Errorf("wants a src>dst machine pair")
	}
	if l.Src, err = strconv.Atoi(sPart); err != nil || l.Src < 0 {
		return l, fmt.Errorf("bad src machine %q", sPart)
	}
	if l.Dst, err = strconv.Atoi(dPart); err != nil || l.Dst < 0 {
		return l, fmt.Errorf("bad dst machine %q", dPart)
	}
	if l.Src == l.Dst {
		return l, fmt.Errorf("src and dst are the same machine")
	}
	mode, extraPart, hasExtra := strings.Cut(modePart, ":")
	switch mode {
	case "drop":
		if hasExtra {
			return l, fmt.Errorf("drop takes no extra latency")
		}
		l.Mode = LinkDrop
	case "delay":
		l.Mode = LinkDelay
		l.Extra = machine.Duration(2 * 1000 * 1000) // 2 ms default
		if hasExtra {
			x, err := time.ParseDuration(extraPart)
			if err != nil || x <= 0 {
				return l, fmt.Errorf("bad delay %q", extraPart)
			}
			l.Extra = machine.Duration(x.Nanoseconds())
		}
	default:
		return l, fmt.Errorf("unknown link mode %q", mode)
	}
	l.At, l.Dur = at, dur
	return l, nil
}

// parseGray parses "M:F@T+dur".
func parseGray(val string) (Gray, error) {
	var g Gray
	head, at, dur, err := parseWindow(val)
	if err != nil {
		return g, err
	}
	mPart, fPart, ok := strings.Cut(head, ":")
	if !ok {
		return g, fmt.Errorf("wants M:factor before the window")
	}
	if g.Machine, err = strconv.Atoi(mPart); err != nil || g.Machine < 0 {
		return g, fmt.Errorf("bad machine index %q", mPart)
	}
	if g.Factor, err = strconv.ParseFloat(fPart, 64); err != nil || !validFactor(g.Factor) {
		return g, fmt.Errorf("bad slowdown factor %q (want in (0,%d])", fPart, MaxFactor)
	}
	g.At, g.Dur = at, dur
	return g, nil
}

// parseBurst parses "F@T+dur": an offered-load multiplier window. A
// factor of 1 would be a no-op and is rejected; factors below 1 are
// legal (a demand dip).
func parseBurst(val string) (Burst, error) {
	var b Burst
	head, at, dur, err := parseWindow(val)
	if err != nil {
		return b, err
	}
	if b.Factor, err = strconv.ParseFloat(head, 64); err != nil || !validFactor(b.Factor) || b.Factor == 1 {
		return b, fmt.Errorf("bad burst factor %q (want in (0,%d], != 1)", head, MaxFactor)
	}
	b.At, b.Dur = at, dur
	return b, nil
}

// ParseCrash parses one crash rule value "M@T" or "M@T:reboot+N" (the
// machsim -crash flag uses the same grammar without the "crash=" key).
func ParseCrash(val string) (Crash, error) {
	var c Crash
	atPart, rebootPart, hasReboot := strings.Cut(val, ":")
	mPart, tPart, ok := strings.Cut(atPart, "@")
	if !ok {
		return c, fmt.Errorf("fault: crash rule %q wants M@T[:reboot+N]", val)
	}
	m, err := strconv.Atoi(strings.TrimSpace(mPart))
	if err != nil || m < 0 {
		return c, fmt.Errorf("fault: crash rule %q has a bad machine index", val)
	}
	at, err := time.ParseDuration(tPart)
	if err != nil || at <= 0 {
		return c, fmt.Errorf("fault: crash rule %q has a bad crash time", val)
	}
	c.Machine = m
	c.At = machine.Duration(at.Nanoseconds())
	if hasReboot {
		nPart, okR := strings.CutPrefix(rebootPart, "reboot+")
		if !okR {
			return c, fmt.Errorf("fault: crash rule %q wants reboot+N after the colon", val)
		}
		n, err := time.ParseDuration(nPart)
		if err != nil || n <= 0 {
			return c, fmt.Errorf("fault: crash rule %q has a bad reboot delay", val)
		}
		c.RebootAfter = machine.Duration(n.Nanoseconds())
	}
	return c, nil
}

// CheckMachines rejects a rule that names a machine the run does not
// boot. The grammar cannot know the cluster size, so a run checks its
// plan against its machine count before anything boots; the error names
// the rule and the count.
func (s Spec) CheckMachines(n int) error {
	fail := func(rule string, m int) error {
		have := fmt.Sprintf("%d machines (0-%d)", n, n-1)
		if n == 1 {
			have = "1 machine (0)"
		}
		return fmt.Errorf("fault: rule %q names machine %d, but the run has %s", rule, m, have)
	}
	for _, c := range s.Crashes {
		if c.Machine >= n {
			return fail(c.rule(), c.Machine)
		}
	}
	for _, p := range s.Partitions {
		for _, group := range [][]int{p.A, p.B} {
			for _, m := range group {
				if m >= n {
					return fail(p.rule(), m)
				}
			}
		}
	}
	for _, l := range s.Links {
		if l.Src >= n {
			return fail(l.rule(), l.Src)
		}
		if l.Dst >= n {
			return fail(l.rule(), l.Dst)
		}
	}
	for _, g := range s.Grays {
		if g.Machine >= n {
			return fail(g.rule(), g.Machine)
		}
	}
	return nil
}

// rule renders the crash in the spec grammar.
func (c Crash) rule() string {
	r := fmt.Sprintf("crash=%d@%s", c.Machine, fmtDur(c.At))
	if c.RebootAfter != 0 {
		r += ":reboot+" + fmtDur(c.RebootAfter)
	}
	return r
}

// ParseFlag parses the machsim -faults argument "seed:spec", e.g.
// "42:drop=0.1,dup=0.02". The seed is decimal; the spec follows the
// first colon (durations inside the spec may themselves contain colons).
func ParseFlag(s string) (uint64, Spec, error) {
	seedPart, specPart, ok := strings.Cut(s, ":")
	if !ok {
		return 0, Spec{}, fmt.Errorf("fault: -faults wants seed:spec, got %q", s)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedPart), 10, 64)
	if err != nil {
		return 0, Spec{}, fmt.Errorf("fault: bad seed in %q", s)
	}
	spec, err := ParseSpec(specPart)
	if err != nil {
		return 0, Spec{}, err
	}
	return seed, spec, nil
}

// Stats counts what a plan actually injected.
type Stats struct {
	DeviceFails     uint64 // requests forced to complete with an error
	DeviceSlowdowns uint64 // latency spikes added to requests
	Drops           uint64 // packets lost on the wire
	Dups            uint64 // packets delivered twice
	Delays          uint64 // packets held back (reordering)
}

// Plan is a seeded rule set. Each machine gets its own plan so the two
// kernels of a cluster draw from independent streams in a deterministic
// interleaving.
type Plan struct {
	Spec  Spec
	Stats Stats

	state uint64 // SplitMix64 generator state
}

// New creates a plan with its own generator.
func New(seed uint64, spec Spec) *Plan {
	return &Plan{Spec: spec, state: seed}
}

// next returns the next 64 random bits (SplitMix64).
func (p *Plan) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hit draws once and reports true with the given probability, quantized
// to basis points so the draw is integer-exact.
func (p *Plan) hit(prob float64) bool {
	bp := uint64(prob*10000 + 0.5)
	if bp == 0 {
		return false
	}
	return p.next()%10000 < bp
}

// DeviceFail reports whether the named device's current request should
// complete with an I/O error.
func (p *Plan) DeviceFail(dev string) bool {
	if p == nil || !p.hit(p.Spec.DeviceFailProb) {
		return false
	}
	p.Stats.DeviceFails++
	return true
}

// DeviceDelay returns extra service latency for the named device's
// current request (zero when no spike is injected).
func (p *Plan) DeviceDelay(dev string) machine.Duration {
	if p == nil || !p.hit(p.Spec.DeviceSlowProb) {
		return 0
	}
	p.Stats.DeviceSlowdowns++
	return p.Spec.DeviceSlowExtra
}

// DropPacket reports whether the packet being transmitted is lost.
func (p *Plan) DropPacket() bool {
	if p == nil || !p.hit(p.Spec.DropProb) {
		return false
	}
	p.Stats.Drops++
	return true
}

// DupPacket reports whether the packet being transmitted arrives twice.
func (p *Plan) DupPacket() bool {
	if p == nil || !p.hit(p.Spec.DupProb) {
		return false
	}
	p.Stats.Dups++
	return true
}

// DelayPacket returns extra wire latency for the packet being
// transmitted (zero when it travels on time).
func (p *Plan) DelayPacket() machine.Duration {
	if p == nil || !p.hit(p.Spec.DelayProb) {
		return 0
	}
	p.Stats.Delays++
	return p.Spec.DelayExtra
}

// Injected totals everything the plan injected, for reports.
func (p *Plan) Injected() uint64 {
	if p == nil {
		return 0
	}
	s := p.Stats
	return s.DeviceFails + s.DeviceSlowdowns + s.Drops + s.Dups + s.Delays
}

func (s Stats) String() string {
	return fmt.Sprintf("devfail=%d devslow=%d drop=%d dup=%d delay=%d",
		s.DeviceFails, s.DeviceSlowdowns, s.Drops, s.Dups, s.Delays)
}
