package overload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

func ms(n uint64) machine.Time { return machine.Time(n) * machine.Time(time.Millisecond) }

// policyCases is ParsePolicy's table: accepted specs with a check of
// the parsed policy, and rejected ones with a fragment of the error.
// FuzzParsePolicy seeds its corpus from it.
var policyCases = []struct {
	in      string
	wantErr string // substring, "" = ok
	check   func(t *testing.T, p Policy)
}{
	{in: "off", check: func(t *testing.T, p Policy) {
		if p.Enabled {
			t.Fatalf("off parsed as enabled")
		}
	}},
	{in: "on", check: func(t *testing.T, p Policy) {
		if !p.Enabled || p != DefaultPolicy() {
			t.Fatalf("on != DefaultPolicy: %+v", p)
		}
	}},
	{in: "on:deadline=10ms,budget=3", check: func(t *testing.T, p Policy) {
		if p.Deadline != ms(10) || p.Budget != 3 {
			t.Fatalf("params not applied: %+v", p)
		}
		if p.Target != DefaultPolicy().Target {
			t.Fatalf("unset param lost default: %+v", p)
		}
	}},
	{in: "on:target=250us,interval=1ms,refill=3ms,breaker=4,cooldown=8ms", check: func(t *testing.T, p Policy) {
		if p.Target != machine.Time(250*time.Microsecond) || p.Interval != ms(1) ||
			p.Refill != ms(3) || p.Breaker != 4 || p.Cooldown != ms(8) {
			t.Fatalf("params not applied: %+v", p)
		}
	}},
	{in: "on:deadline=1500ns,refill=2500us,budget=4294967295", check: func(t *testing.T, p Policy) {
		if p.Deadline != 1500 || p.Refill != machine.Time(2500*time.Microsecond) || p.Budget != 1<<32-1 {
			t.Fatalf("sub-millisecond params or the widest budget not applied: %+v", p)
		}
	}},
	{in: "", wantErr: "empty spec"},
	{in: "maybe", wantErr: `unknown mode "maybe"`},
	{in: "off:target=1ms", wantErr: "off takes no parameters"},
	{in: "on:target", wantErr: `rule 0 ("target"): want key=value`},
	{in: "on:deadline=1ms,zeal=9", wantErr: `rule 1 ("zeal=9"): unknown key "zeal"`},
	{in: "on:budget=0", wantErr: "bad budget"},
	{in: "on:budget=-2", wantErr: "bad budget"},
	{in: "on:breaker=0", wantErr: "bad breaker"},
	{in: "on:target=fast", wantErr: "bad target"},
	{in: "on:cooldown=-4ms", wantErr: "bad cooldown"},
	{in: "on:deadline=1ms,interval=soon", wantErr: `rule 1 ("interval=soon")`},
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range policyCases {
		p, err := ParsePolicy(tc.in)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("ParsePolicy(%q): want error containing %q, got ok", tc.in, tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParsePolicy(%q): error %q does not contain %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePolicy(%q): unexpected error %v", tc.in, err)
			continue
		}
		if tc.check != nil {
			tc.check(t, p)
		}
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	p := DefaultPolicy()
	back, err := ParsePolicy(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if back != p {
		t.Fatalf("round trip changed policy: %+v vs %+v", back, p)
	}
	if got := (Policy{}).String(); got != "off" {
		t.Fatalf("zero policy String = %q, want off", got)
	}
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(2, ms(10))
	now := ms(100)
	if !b.Take(now) || !b.Take(now) {
		t.Fatalf("fresh bucket should grant its capacity")
	}
	if b.Take(now) {
		t.Fatalf("empty bucket granted a token")
	}
	// One refill interval later: exactly one token back.
	now += ms(10)
	if !b.Take(now) {
		t.Fatalf("token not refilled after one interval")
	}
	if b.Take(now) {
		t.Fatalf("more than one token refilled after one interval")
	}
	// A long quiet period clamps at capacity, not unbounded.
	now += ms(1000)
	if got := b.Tokens(now); got != 2 {
		t.Fatalf("tokens after long idle = %d, want cap 2", got)
	}
}

func TestRetryBudgetDeterministic(t *testing.T) {
	run := func() []bool {
		b := NewRetryBudget(3, ms(5))
		var out []bool
		for i := uint64(0); i < 40; i++ {
			out = append(out, b.Take(ms(7*i)))
		}
		return out
	}
	a, c := run(), run()
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("retry budget diverged at step %d", i)
		}
	}
}

func TestCoDelAdmitsBelowTarget(t *testing.T) {
	c := &CoDel{Target: ms(1), Interval: ms(4)}
	for i := uint64(0); i < 100; i++ {
		now := ms(10 * (i + 1))
		if !c.Admit(now, now-ms(0)) {
			t.Fatalf("rejected an op with zero sojourn at step %d", i)
		}
	}
}

func TestCoDelRejectsAfterSustainedSojourn(t *testing.T) {
	c := &CoDel{Target: ms(1), Interval: ms(4)}
	now := ms(100)
	// First breach admits and arms the interval timer.
	if !c.Admit(now, now-ms(2)) {
		t.Fatalf("first breach must admit")
	}
	// Still inside the grace interval: admit.
	if !c.Admit(now+ms(2), now+ms(2)-ms(2)) {
		t.Fatalf("inside grace interval must admit")
	}
	// Past the interval with sojourn still high: reject.
	if c.Admit(now+ms(5), now+ms(5)-ms(2)) {
		t.Fatalf("sustained sojourn past interval must reject")
	}
	rejects := 0
	for i := uint64(0); i < 40; i++ {
		if !c.Admit(now+ms(5)+ms(i), now+ms(5)+ms(i)-ms(2)) {
			rejects++
		}
	}
	if rejects == 0 || rejects == 40 {
		t.Fatalf("dropping episode should pace rejections, got %d/40", rejects)
	}
	// Sojourn back under target: dropping ends, everything admits.
	if !c.Admit(now+ms(60), now+ms(60)) {
		t.Fatalf("recovered queue must admit")
	}
	if c.Admit(now+ms(60), now+ms(60)) != true {
		t.Fatalf("recovered queue must keep admitting")
	}
}

func TestCoDelPacingAccelerates(t *testing.T) {
	// The inverse-sqrt schedule: gaps between scheduled rejections
	// must shrink (or hold) as the episode continues.
	c := &CoDel{Target: ms(1), Interval: ms(4)}
	base := ms(100)
	c.Admit(base, base-ms(2)) // arm
	var rejectTimes []machine.Time
	for i := uint64(0); i < 400; i++ {
		now := base + ms(4) + machine.Time(i)*machine.Time(200*time.Microsecond)
		if !c.Admit(now, now-ms(2)) {
			rejectTimes = append(rejectTimes, now)
		}
	}
	if len(rejectTimes) < 3 {
		t.Fatalf("expected a sustained dropping episode, got %d rejections", len(rejectTimes))
	}
	first := rejectTimes[1] - rejectTimes[0]
	last := rejectTimes[len(rejectTimes)-1] - rejectTimes[len(rejectTimes)-2]
	if last > first {
		t.Fatalf("pacing should accelerate: first gap %v, last gap %v", first, last)
	}
}

func TestIsqrt(t *testing.T) {
	for _, tc := range []struct{ n, want uint64 }{
		{1, 1}, {2, 1}, {3, 1}, {4, 2}, {8, 2}, {9, 3}, {15, 3}, {16, 4}, {1 << 20, 1 << 10},
	} {
		if got := isqrt(tc.n); got != tc.want {
			t.Errorf("isqrt(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(3, ms(10), 42)
	now := ms(50)
	if !b.Allow(now) {
		t.Fatalf("fresh breaker must be closed")
	}
	b.Failure(now)
	b.Failure(now)
	if b.State() != BreakerClosed {
		t.Fatalf("two failures below threshold must stay closed")
	}
	if !b.Failure(now) {
		t.Fatalf("threshold failure must report the open edge")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after trip = %v, want open", b.State())
	}
	if b.Allow(now + ms(1)) {
		t.Fatalf("open breaker allowed traffic before cooldown")
	}
	// After cooldown+max jitter the probe must be allowed; jitter is
	// bounded by Cooldown/4.
	probeTime := now + ms(10) + ms(10)/4
	if !b.Allow(probeTime) {
		t.Fatalf("breaker did not allow probe after cooldown+jitter")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe allowed = %v, want half-open", b.State())
	}
	if b.Allow(probeTime) {
		t.Fatalf("half-open breaker allowed a second concurrent probe")
	}
	// Probe fails: back to open, another full cooldown.
	b.Failure(probeTime + ms(1))
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe must reopen")
	}
	if b.Allow(probeTime + ms(2)) {
		t.Fatalf("reopened breaker allowed traffic immediately")
	}
	// Next probe succeeds: closed again.
	probe2 := probeTime + ms(1) + ms(10) + ms(10)/4
	if !b.Allow(probe2) {
		t.Fatalf("second probe not allowed")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow(probe2) {
		t.Fatalf("probe success must close the breaker")
	}
}

func TestBreakerProbeJitterSeeded(t *testing.T) {
	trip := func(seed uint64) machine.Time {
		b := NewBreaker(1, ms(10), seed)
		b.Failure(ms(100))
		// Find the first allowed instant by scanning.
		for t := ms(100); t < ms(200); t += machine.Time(50 * time.Microsecond) {
			if b.Allow(t) {
				return t
			}
		}
		return 0
	}
	a1, a2 := trip(7), trip(7)
	if a1 != a2 || a1 == 0 {
		t.Fatalf("same seed must probe at the same instant: %v vs %v", a1, a2)
	}
	if b := trip(8); b == a1 {
		t.Fatalf("distinct seeds should stagger probes (both at %v)", a1)
	}
}

func TestStatsShed(t *testing.T) {
	s := Stats{Expired: 3, Rejected: 4, Admitted: 10}
	if s.Shed() != 7 {
		t.Fatalf("Shed = %d, want 7", s.Shed())
	}
}
