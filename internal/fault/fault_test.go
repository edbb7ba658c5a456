package fault_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

func TestParseSpec(t *testing.T) {
	spec, err := fault.ParseSpec("devfail=0.05,devslow=0.1:2ms,drop=0.1,dup=0.02,delay=0.05:1ms")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.DeviceFailProb != 0.05 || spec.DropProb != 0.1 || spec.DupProb != 0.02 {
		t.Fatalf("probabilities wrong: %+v", spec)
	}
	if spec.DeviceSlowExtra != machine.Duration(2*1000*1000) {
		t.Fatalf("devslow extra = %v, want 2ms", spec.DeviceSlowExtra)
	}
	if spec.DelayExtra != machine.Duration(1*1000*1000) {
		t.Fatalf("delay extra = %v, want 1ms", spec.DelayExtra)
	}
	if spec.Zero() {
		t.Fatalf("spec should not be zero")
	}

	if s, err := fault.ParseSpec(""); err != nil || !s.Zero() {
		t.Fatalf("empty spec should parse to zero, got %+v err %v", s, err)
	}
	for _, bad := range badSpecs {
		if _, err := fault.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

// badSpecs are malformed probabilistic rules. NaN passes a plain range
// comparison, and used to parse into a rule that injects nothing.
var badSpecs = []string{
	"drop", "drop=2", "drop=-1", "nope=0.5", "devslow=0.5:xyz",
	"drop=NaN", "dup=NaN", "delay=NaN", "devfail=NaN", "devslow=NaN",
	"drop=Inf", "drop=-Inf", "delay=nan:1ms",
}

func TestParseFlag(t *testing.T) {
	seed, spec, err := fault.ParseFlag("42:drop=0.1,devslow=0.05:3ms")
	if err != nil {
		t.Fatalf("ParseFlag: %v", err)
	}
	if seed != 42 {
		t.Fatalf("seed = %d, want 42", seed)
	}
	if spec.DropProb != 0.1 || spec.DeviceSlowExtra != machine.Duration(3*1000*1000) {
		t.Fatalf("spec wrong: %+v", spec)
	}
	for _, bad := range []string{"", "42", "x:drop=0.1", "42:drop=9"} {
		if _, _, err := fault.ParseFlag(bad); err == nil {
			t.Errorf("ParseFlag(%q) should fail", bad)
		}
	}
}

// TestDeterminism pins that the same seed+spec yields the identical fault
// sequence, and a different seed yields a different one.
func TestDeterminism(t *testing.T) {
	spec, err := fault.ParseSpec("drop=0.3,dup=0.1,devfail=0.2,delay=0.1:1ms")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) []bool {
		p := fault.New(seed, spec)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, p.DropPacket(), p.DupPacket(),
				p.DeviceFail("sd0"), p.DelayPacket() != 0)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical sequences")
	}
}

// TestNilPlan pins that a nil plan injects nothing (call sites carry no
// guards).
func TestNilPlan(t *testing.T) {
	var p *fault.Plan
	if p.DeviceFail("sd0") || p.DropPacket() || p.DupPacket() {
		t.Fatalf("nil plan injected a fault")
	}
	if p.DeviceDelay("sd0") != 0 || p.DelayPacket() != 0 {
		t.Fatalf("nil plan injected latency")
	}
	if p.Injected() != 0 {
		t.Fatalf("nil plan counted injections")
	}
}

// TestRates sanity-checks that injection frequencies track the configured
// probabilities and that the stats counters match what was reported.
func TestRates(t *testing.T) {
	spec := fault.Spec{DropProb: 0.10}
	p := fault.New(99, spec)
	const n = 20000
	var drops uint64
	for i := 0; i < n; i++ {
		if p.DropPacket() {
			drops++
		}
	}
	if p.Stats.Drops != drops {
		t.Fatalf("stats.Drops = %d, reported %d", p.Stats.Drops, drops)
	}
	rate := float64(drops) / n
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("drop rate %.3f far from configured 0.10", rate)
	}
	if p.Injected() != drops {
		t.Fatalf("Injected() = %d, want %d", p.Injected(), drops)
	}
}

func TestParseCrash(t *testing.T) {
	c, err := fault.ParseCrash("1@40ms:reboot+80ms")
	if err != nil {
		t.Fatalf("ParseCrash: %v", err)
	}
	if c.Machine != 1 || c.At != machine.Time(40*1000*1000) || c.RebootAfter != machine.Duration(80*1000*1000) {
		t.Fatalf("crash = %+v", c)
	}

	// No reboot clause: the machine stays down.
	c, err = fault.ParseCrash("2@100us")
	if err != nil {
		t.Fatalf("ParseCrash: %v", err)
	}
	if c.Machine != 2 || c.At != machine.Time(100*1000) || c.RebootAfter != 0 {
		t.Fatalf("crash = %+v", c)
	}

	for _, bad := range []string{"", "1", "1@", "@40ms", "x@40ms", "1@xyz", "1@40ms:reboot", "1@40ms:reboot+", "1@40ms:reboot+xyz", "1@40ms:later+5ms", "-1@40ms"} {
		if _, err := fault.ParseCrash(bad); err == nil {
			t.Errorf("ParseCrash(%q) should fail", bad)
		}
	}
}

func TestParseSpecCrashRule(t *testing.T) {
	spec, err := fault.ParseSpec("drop=0.1,crash=0@10ms:reboot+5ms,crash=3@20ms")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(spec.Crashes) != 2 {
		t.Fatalf("crashes = %+v", spec.Crashes)
	}
	if spec.Crashes[0].Machine != 0 || spec.Crashes[0].RebootAfter != machine.Duration(5*1000*1000) {
		t.Fatalf("crash[0] = %+v", spec.Crashes[0])
	}
	if spec.Crashes[1].Machine != 3 || spec.Crashes[1].RebootAfter != 0 {
		t.Fatalf("crash[1] = %+v", spec.Crashes[1])
	}
	if spec.Zero() {
		t.Fatal("spec with crashes must not be zero")
	}
	if s, err := fault.ParseSpec("crash=0@10ms"); err != nil || s.Zero() {
		t.Fatalf("crash-only spec: %+v err %v", s, err)
	}
	if _, err := fault.ParseSpec("crash=bogus"); err == nil {
		t.Error("bad crash rule should fail")
	}
}
