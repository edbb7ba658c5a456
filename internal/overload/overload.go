// Package overload implements the end-to-end overload-control subsystem
// threaded through the service stack: absolute deadlines carried in the
// netmsg header and checked on dequeue at every tier, per-client retry
// budgets (token buckets) replacing unbounded retransmit loops, a
// CoDel-style queue-sojourn admission controller at the cache and KV
// tiers, and a frontend circuit breaker that converts deep brownouts
// into fast local errors.
//
// Everything here is deterministic: all state advances on the simulated
// clock only, the circuit breaker's probe jitter comes from a seeded
// SplitMix64 stream, and none of the controllers allocate on the
// steady-state path. With Policy.Enabled false every control degenerates
// to "admit", so runs without -overload are byte-identical to builds
// that predate this package.
//
// The shedding vocabulary is deliberate and mirrored in the per-tier
// Stats counters:
//
//   - Expired: the op's absolute deadline had already passed when a tier
//     dequeued it. Servicing it would be pure waste — the client has
//     long since timed out and retried — so the tier drops it on the
//     floor (a typed Expired reply if a reply port is attached).
//   - Rejected: the op was alive but the tier refused admission — CoDel
//     sojourn over target, retry budget empty, or breaker open. The
//     client gets a typed fast-fail instead of a slow timeout.
//
// Both are definite no-ops: a tier never applies state and then sheds,
// so the linearizability checker can exclude them outright.
package overload

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/machine"
)

// Policy is the parsed -overload flag: one knob set shared by every
// tier of a run. The zero value (Enabled false) disables all controls.
type Policy struct {
	Enabled bool

	// Deadline is the per-op budget stamped by the client at issue
	// time: absolute deadline = issue time + Deadline.
	Deadline machine.Duration

	// Target and Interval parameterize the CoDel admission controller:
	// reject admissions when queue sojourn has stayed above Target for
	// a full Interval.
	Target   machine.Duration
	Interval machine.Duration

	// Budget and Refill parameterize the per-client retry token
	// bucket: Budget tokens capacity, one token back every Refill.
	Budget uint64
	Refill machine.Duration

	// Breaker is the consecutive-failure count that trips the frontend
	// circuit breaker open; Cooldown is how long it stays open before
	// scheduling a half-open probe.
	Breaker  int
	Cooldown machine.Duration
}

// DefaultPolicy is "-overload on" with no extra parameters: tuned for
// the canonical storm scenario's millisecond-scale RPCs.
func DefaultPolicy() Policy {
	return Policy{
		Enabled:  true,
		Deadline: machine.Duration(10 * time.Millisecond),
		Target:   machine.Duration(time.Millisecond),
		Interval: machine.Duration(5 * time.Millisecond),
		Budget:   8,
		Refill:   machine.Duration(5 * time.Millisecond),
		Breaker:  6,
		Cooldown: machine.Duration(15 * time.Millisecond),
	}
}

// ParsePolicy parses the -overload flag value: "off", "on", or
// "on:key=value,..." where keys are deadline, target, interval, budget,
// refill, breaker, cooldown. Malformed rules are reported by index so
// the offending clause is nameable from the exit-2 message.
func ParsePolicy(s string) (Policy, error) {
	head, rest, hasParams := strings.Cut(s, ":")
	switch head {
	case "off":
		if hasParams {
			return Policy{}, fmt.Errorf("overload: %q: off takes no parameters", s)
		}
		return Policy{}, nil
	case "on":
		// fall through to parameter parsing
	case "":
		return Policy{}, fmt.Errorf("overload: empty spec (want off, on, or on:key=value,...)")
	default:
		return Policy{}, fmt.Errorf("overload: unknown mode %q (want off or on)", head)
	}
	p := DefaultPolicy()
	if !hasParams {
		return p, nil
	}
	for i, rule := range strings.Split(rest, ",") {
		fail := func(format string, args ...any) (Policy, error) {
			return Policy{}, fmt.Errorf("overload: rule %d (%q): %s", i, rule, fmt.Sprintf(format, args...))
		}
		key, val, ok := strings.Cut(rule, "=")
		if !ok {
			return fail("want key=value")
		}
		dur := func() (machine.Duration, error) {
			d, err := time.ParseDuration(val)
			if err != nil {
				return 0, err
			}
			if d <= 0 {
				return 0, fmt.Errorf("must be positive")
			}
			return machine.Duration(d), nil
		}
		switch key {
		case "deadline":
			d, err := dur()
			if err != nil {
				return fail("bad deadline: %v", err)
			}
			p.Deadline = d
		case "target":
			d, err := dur()
			if err != nil {
				return fail("bad target: %v", err)
			}
			p.Target = d
		case "interval":
			d, err := dur()
			if err != nil {
				return fail("bad interval: %v", err)
			}
			p.Interval = d
		case "budget":
			n, err := strconv.ParseUint(val, 10, 32)
			if err != nil || n == 0 {
				return fail("bad budget %q (want positive integer)", val)
			}
			p.Budget = n
		case "refill":
			d, err := dur()
			if err != nil {
				return fail("bad refill: %v", err)
			}
			p.Refill = d
		case "breaker":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fail("bad breaker %q (want positive integer)", val)
			}
			p.Breaker = n
		case "cooldown":
			d, err := dur()
			if err != nil {
				return fail("bad cooldown: %v", err)
			}
			p.Cooldown = d
		default:
			return fail("unknown key %q", key)
		}
	}
	return p, nil
}

// String renders the policy in flag syntax (for reports).
func (p Policy) String() string {
	if !p.Enabled {
		return "off"
	}
	return fmt.Sprintf("on:deadline=%s,target=%s,interval=%s,budget=%d,refill=%s,breaker=%d,cooldown=%s",
		fmtDur(p.Deadline), fmtDur(p.Target), fmtDur(p.Interval),
		p.Budget, fmtDur(p.Refill), p.Breaker, fmtDur(p.Cooldown))
}

func fmtDur(d machine.Duration) string {
	if d%machine.Duration(time.Millisecond) == 0 {
		return fmt.Sprintf("%dms", d/machine.Duration(time.Millisecond))
	}
	if d%machine.Duration(time.Microsecond) == 0 {
		return fmt.Sprintf("%dus", d/machine.Duration(time.Microsecond))
	}
	return fmt.Sprintf("%dns", uint64(d))
}

// Stats is one tier's shedding scoreboard. Counters only ever
// increment; reports subtract snapshots for windowed rates.
type Stats struct {
	Admitted        uint64 // ops that passed every control at this tier
	Expired         uint64 // dequeued past their deadline, dropped
	Rejected        uint64 // CoDel sojourn over target, fast-failed
	BudgetDenied    uint64 // retry wanted but token bucket empty
	BreakerFastFail uint64 // op refused locally while breaker open
	BreakerOpens    uint64 // closed->open transitions
}

// Shed is Expired+Rejected: work this tier refused to service.
func (s *Stats) Shed() uint64 { return s.Expired + s.Rejected }

// RetryBudget is a per-client integer token bucket: Take spends a
// token per retry attempt, and tokens flow back at one per Refill of
// simulated time. All arithmetic is integral, so two clients with the
// same timestamps always agree.
type RetryBudget struct {
	Cap    uint64
	Refill machine.Duration

	tokens uint64
	last   machine.Time // last refill accrual instant
}

// NewRetryBudget returns a full bucket.
func NewRetryBudget(cap uint64, refill machine.Duration) *RetryBudget {
	return &RetryBudget{Cap: cap, Refill: refill, tokens: cap}
}

func (b *RetryBudget) accrue(now machine.Time) {
	if b.Refill == 0 || now <= b.last {
		return
	}
	earned := uint64(now-b.last) / uint64(b.Refill)
	if earned == 0 {
		return
	}
	b.last += machine.Time(earned * uint64(b.Refill))
	b.tokens += earned
	if b.tokens > b.Cap {
		b.tokens = b.Cap
	}
}

// Take spends one token if available. The first call anchors the
// refill clock.
func (b *RetryBudget) Take(now machine.Time) bool {
	if b.last == 0 {
		b.last = now
	}
	b.accrue(now)
	if b.tokens == 0 {
		return false
	}
	b.tokens--
	return true
}

// Tokens reports the current balance after accrual (for reports).
func (b *RetryBudget) Tokens(now machine.Time) uint64 {
	b.accrue(now)
	return b.tokens
}

// CoDel is the queue-sojourn admission controller. Classic CoDel drops
// from the head of a standing queue; here the same control law gates
// admission: once sojourn (dequeue time minus enqueue time, straight
// from the obs queue-segment attribution) has stayed above Target for a
// full Interval, the tier starts rejecting, and the rejection rate
// accelerates by the inverse-sqrt schedule until sojourn drops below
// Target again.
type CoDel struct {
	Target   machine.Duration
	Interval machine.Duration

	firstAbove machine.Time // when sojourn first exceeded Target (0 = below)
	dropNext   machine.Time // next scheduled rejection while dropping
	count      uint64       // rejections in the current dropping episode
	dropping   bool
}

// Admit decides whether an op dequeued at now that was enqueued at
// enqueuedAt may be serviced. A false return means the tier should
// fast-fail it as Rejected.
func (c *CoDel) Admit(now, enqueuedAt machine.Time) bool {
	sojourn := now - enqueuedAt
	if sojourn < machine.Time(c.Target) {
		// Below target: leave dropping state, admit everything.
		c.firstAbove = 0
		c.dropping = false
		return true
	}
	if c.firstAbove == 0 {
		// First breach: give the queue one Interval to drain.
		c.firstAbove = now + machine.Time(c.Interval)
		return true
	}
	if now < c.firstAbove {
		return true
	}
	if !c.dropping {
		// Sojourn stayed above target for a full interval: start
		// rejecting. Resume the previous episode's count if we
		// re-entered quickly (standard CoDel hysteresis, simplified
		// to a restart here for determinism and clarity).
		c.dropping = true
		c.count = 1
		c.dropNext = now + c.next()
		return false
	}
	if now >= c.dropNext {
		c.count++
		c.dropNext = now + c.next()
		return false
	}
	return true
}

// next is Interval/sqrt(count), the CoDel pacing schedule, with an
// integer sqrt so identical inputs always pace identically.
func (c *CoDel) next() machine.Time {
	return machine.Time(uint64(c.Interval) / isqrt(c.count))
}

// isqrt is floor(sqrt(n)) by Newton's method on integers, n >= 1.
func isqrt(n uint64) uint64 {
	if n < 2 {
		return 1
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// BreakerState is the circuit breaker's three-state machine.
type BreakerState uint8

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is the frontend circuit breaker: Threshold consecutive
// failures trip it open; after Cooldown (plus deterministic seeded
// jitter, so a fleet of breakers doesn't probe in lockstep) it lets a
// single half-open probe through; a probe success closes it, a probe
// failure re-opens it for another cooldown.
type Breaker struct {
	Threshold int
	Cooldown  machine.Duration

	state   BreakerState
	fails   int
	probeAt machine.Time
	rng     uint64 // SplitMix64 state for probe jitter
}

// NewBreaker seeds the probe-jitter stream; distinct clients should use
// distinct seeds.
func NewBreaker(threshold int, cooldown machine.Duration, seed uint64) *Breaker {
	return &Breaker{Threshold: threshold, Cooldown: cooldown, rng: seed}
}

// State reports the current state (for reports and tests).
func (b *Breaker) State() BreakerState { return b.state }

// Allow reports whether an attempt may go out now. While open it
// returns false until the jittered probe time, then transitions to
// half-open and lets exactly one probe through.
func (b *Breaker) Allow(now machine.Time) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < b.probeAt {
			return false
		}
		b.state = BreakerHalfOpen
		return true
	case BreakerHalfOpen:
		// One probe is already in flight; hold further traffic.
		return false
	}
	return true
}

// Success records a completed attempt: resets the failure run and
// closes the breaker from half-open.
func (b *Breaker) Success() {
	b.fails = 0
	b.state = BreakerClosed
}

// Failure records a failed attempt (timeout, typed rejection). It
// reports true when this failure tripped the breaker open — the caller
// counts BreakerOpens from that edge.
func (b *Breaker) Failure(now machine.Time) bool {
	switch b.state {
	case BreakerHalfOpen:
		// Probe failed: straight back to open for another cooldown.
		b.open(now)
		return false
	case BreakerOpen:
		return false
	}
	b.fails++
	if b.fails >= b.Threshold {
		b.open(now)
		return true
	}
	return false
}

func (b *Breaker) open(now machine.Time) {
	b.state = BreakerOpen
	b.fails = 0
	// Jitter up to Cooldown/4 so distinct breakers (distinct seeds)
	// stagger their probes.
	jitter := machine.Time(0)
	if b.Cooldown >= 4 {
		jitter = machine.Time(b.next() % uint64(b.Cooldown/4))
	}
	b.probeAt = now + machine.Time(b.Cooldown) + jitter
}

// next advances the SplitMix64 stream.
func (b *Breaker) next() uint64 {
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
