package fault_test

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

const ms = machine.Duration(1000 * 1000)

// TestParseSpecTopology exercises the partition/link/gray grammar,
// table-driven over good and bad rules (satellite: errors must carry the
// rule index and text).
func TestParseSpecTopology(t *testing.T) {
	for _, tc := range goodTopologySpecs {
		s, err := fault.ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if s.Zero() {
			t.Errorf("ParseSpec(%q) parsed to zero spec", tc.in)
		}
		tc.check(t, s)
	}
	for _, in := range badTopologySpecs {
		if _, err := fault.ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) should fail", in)
		}
	}
}

// goodTopologySpecs are well-formed scheduled rules and what each parses
// to.
var goodTopologySpecs = []struct {
	in    string
	check func(t *testing.T, s fault.Spec)
}{
	{"partition=1|0.2.3@40ms+30ms", func(t *testing.T, s fault.Spec) {
		if len(s.Partitions) != 1 {
			t.Fatalf("partitions = %+v", s.Partitions)
		}
		p := s.Partitions[0]
		if len(p.A) != 1 || p.A[0] != 1 || len(p.B) != 3 || p.B[2] != 3 {
			t.Fatalf("groups = %+v", p)
		}
		if p.At != 40*ms || p.Dur != 30*ms {
			t.Fatalf("window = %+v", p)
		}
	}},
	{"link=2>1:drop@10ms+5ms", func(t *testing.T, s fault.Spec) {
		l := s.Links[0]
		if l.Src != 2 || l.Dst != 1 || l.Mode != fault.LinkDrop || l.At != 10*ms || l.Dur != 5*ms {
			t.Fatalf("link = %+v", l)
		}
	}},
	{"link=0>3:delay:4ms@10ms+5ms", func(t *testing.T, s fault.Spec) {
		l := s.Links[0]
		if l.Mode != fault.LinkDelay || l.Extra != 4*ms {
			t.Fatalf("link = %+v", l)
		}
	}},
	{"link=0>3:delay@10ms+5ms", func(t *testing.T, s fault.Spec) {
		if s.Links[0].Extra != 2*ms { // default
			t.Fatalf("link = %+v", s.Links[0])
		}
	}},
	{"gray=1:8@40ms+30ms", func(t *testing.T, s fault.Spec) {
		g := s.Grays[0]
		if g.Machine != 1 || g.Factor != 8 || g.At != 40*ms || g.Dur != 30*ms {
			t.Fatalf("gray = %+v", g)
		}
	}},
	{"burst=4@30ms+30ms", func(t *testing.T, s fault.Spec) {
		b := s.Bursts[0]
		if b.Factor != 4 || b.At != 30*ms || b.Dur != 30*ms {
			t.Fatalf("burst = %+v", b)
		}
	}},
	{"burst=0.5@30ms+30ms", func(t *testing.T, s fault.Spec) {
		if s.Bursts[0].Factor != 0.5 { // a demand dip is legal
			t.Fatalf("burst = %+v", s.Bursts[0])
		}
	}},
	{"gray=1:1000@10ms+10ms,gray=1:1000@20ms+10ms,gray=2:1000@10ms+10ms", func(t *testing.T, s fault.Spec) {
		if len(s.Grays) != 3 { // at the bound, and windows that do not overlap on one machine
			t.Fatalf("grays = %+v", s.Grays)
		}
	}},
	{"burst=1000@10ms+10ms,burst=0.5@20ms+10ms", func(t *testing.T, s fault.Spec) {
		if len(s.Bursts) != 2 {
			t.Fatalf("bursts = %+v", s.Bursts)
		}
	}},
	{"drop=0.1,partition=0|1@1ms+1ms,gray=0:2@1ms+1ms,link=0>1:drop@1ms+1ms,burst=4@1ms+1ms", func(t *testing.T, s fault.Spec) {
		if s.DropProb != 0.1 || len(s.Partitions) != 1 || len(s.Grays) != 1 || len(s.Links) != 1 || len(s.Bursts) != 1 {
			t.Fatalf("mixed spec = %+v", s)
		}
	}},
}

// badTopologySpecs are malformed scheduled rules. The non-finite and
// runaway factors among them used to hang the run or exhaust its memory.
var badTopologySpecs = []string{
	"partition=1@40ms+30ms",      // no |
	"partition=|1@40ms+30ms",     // empty group
	"partition=a|1@40ms+30ms",    // bad index
	"partition=1|1.2@40ms+30ms",  // overlapping groups
	"partition=0|1@40ms",         // no +dur
	"partition=0|1",              // no window
	"partition=0|1@40ms+0ms",     // zero duration
	"link=1:drop@1ms+1ms",        // no > pair
	"link=1>1:drop@1ms+1ms",      // self link
	"link=1>2:flood@1ms+1ms",     // unknown mode
	"link=1>2:drop:3ms@1ms+1ms",  // drop takes no extra
	"link=1>2:delay:xyz@1ms+1ms", // bad delay
	"gray=1@40ms+30ms",           // no factor
	"gray=1:0@40ms+30ms",         // zero factor
	"gray=x:2@40ms+30ms",         // bad machine
	"burst=4",                    // no window
	"burst=@30ms+30ms",           // no factor
	"burst=x@30ms+30ms",          // bad factor
	"burst=0@30ms+30ms",          // zero factor
	"burst=1@30ms+30ms",          // factor 1 is a no-op
	"burst=-2@30ms+30ms",         // negative factor
	"gray=1:NaN@10ms+10ms",
	"gray=1:Inf@10ms+10ms",
	"gray=1:1e300@10ms+10ms",
	"gray=1:1001@10ms+10ms",
	"burst=NaN@70ms+10ms",
	"burst=Inf@70ms+10ms",
	"burst=1e7@70ms+10ms",
	"gray=1:100@10ms+10ms,gray=1:100@15ms+10ms", // overlapping windows multiply
	"burst=40@70ms+10ms,burst=40@75ms+10ms",
	// A dip below 1 hides the product at every window's start; it
	// multiplies to 1e6 from the dip's end at 100ms.
	"burst=0.001@0ms+100ms,burst=1000@10ms+200ms,burst=1000@20ms+200ms",
	"gray=1:0.001@0ms+100ms,gray=1:1000@10ms+200ms,gray=1:1000@20ms+200ms",
}

// TestParseSpecErrorsNameRule pins the satellite fix: errors carry the
// offending rule's index and text.
func TestParseSpecErrorsNameRule(t *testing.T) {
	_, err := fault.ParseSpec("drop=0.1,dup=2,delay=0.05")
	if err == nil {
		t.Fatal("bad probability should fail")
	}
	if !strings.Contains(err.Error(), "rule 1") || !strings.Contains(err.Error(), `"dup=2"`) {
		t.Fatalf("error %q does not name rule 1 (\"dup=2\")", err)
	}
}

// TestCheckMachines pins the machine-count check: every crash, link,
// gray and partition index must name a machine the run boots, and the
// error renders the offending rule and the count.
func TestCheckMachines(t *testing.T) {
	bad := []struct{ spec, want string }{
		{"crash=9@1ms", `rule "crash=9@1ms" names machine 9, but the run has 4 machines (0-3)`},
		{"crash=4@1ms:reboot+10ms", `rule "crash=4@1ms:reboot+10ms" names machine 4`},
		{"link=0>9:drop@10ms+10ms", `rule "link=0>9:drop@10ms+10ms" names machine 9`},
		{"link=7>1:delay:3ms@30ms+40ms", `rule "link=7>1:delay:3ms@30ms+40ms" names machine 7`},
		{"gray=9:2@10ms+10ms", `rule "gray=9:2@10ms+10ms" names machine 9`},
		{"partition=1|0.2.9@10ms+10ms", `rule "partition=1|0.2.9@10ms+10ms" names machine 9`},
		{"drop=0.1,crash=3@1ms,partition=4|0@1ms+1ms", `names machine 4`},
	}
	for _, tc := range bad {
		s, err := fault.ParseSpec(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		err = s.CheckMachines(4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.spec, err, tc.want)
		}
	}
	s, err := fault.ParseSpec("drop=0.1,crash=3@1ms,link=3>0:drop@1ms+1ms,gray=0:2@1ms+1ms,partition=0.1|2.3@1ms+1ms,burst=2@1ms+1ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMachines(4); err != nil {
		t.Errorf("in-range plan rejected: %v", err)
	}
	if err := s.CheckMachines(1); err == nil || !strings.Contains(err.Error(), "the run has 1 machine (0)") {
		t.Errorf("single machine: error %v", err)
	}
}

// TestParseSpecDuplicateKeys pins the satellite fix: a repeated
// probabilistic key is rejected instead of silently overwriting.
func TestParseSpecDuplicateKeys(t *testing.T) {
	_, err := fault.ParseSpec("drop=0.1,dup=0.02,drop=0.5")
	if err == nil {
		t.Fatal("duplicate drop= should fail")
	}
	if !strings.Contains(err.Error(), "duplicate drop") || !strings.Contains(err.Error(), "rule 2") {
		t.Fatalf("error %q does not name the duplicate", err)
	}
	// Scheduled rules may repeat.
	s, err := fault.ParseSpec("crash=0@1ms,crash=1@2ms,partition=0|1@1ms+1ms,partition=0|2@5ms+1ms")
	if err != nil {
		t.Fatalf("repeated scheduled rules should parse: %v", err)
	}
	if len(s.Crashes) != 2 || len(s.Partitions) != 2 {
		t.Fatalf("spec = %+v", s)
	}
}

// TestTopologyQueries pins the pure window semantics of CutAt /
// ExtraDelay / Slowdown, including nil-safety.
func TestTopologyQueries(t *testing.T) {
	spec, err := fault.ParseSpec(
		"partition=1|0.2@40ms+30ms,link=2>1:drop@10ms+5ms,link=0>1:delay:4ms@10ms+5ms,gray=1:8@100ms+10ms")
	if err != nil {
		t.Fatal(err)
	}
	topo := fault.NewTopology(spec)
	if topo == nil {
		t.Fatal("topology should be non-nil")
	}

	at := func(msAt int64) machine.Time { return machine.Time(msAt) * machine.Time(ms) }

	// Partition window: cut both directions between the groups, start
	// inclusive, end exclusive; machines outside the groups unaffected.
	if topo.CutAt(1, 0, at(39)) || topo.CutAt(1, 0, at(70)) {
		t.Fatal("cut outside window")
	}
	if !topo.CutAt(1, 0, at(40)) || !topo.CutAt(0, 1, at(69)) || !topo.CutAt(2, 1, at(55)) {
		t.Fatal("partition window not enforced")
	}
	if topo.CutAt(0, 2, at(55)) {
		t.Fatal("intra-group traffic cut")
	}
	if topo.CutAt(3, 1, at(55)) || topo.CutAt(1, 3, at(55)) {
		t.Fatal("machine outside both groups cut")
	}

	// Drop link: one-way only.
	if !topo.CutAt(2, 1, at(12)) {
		t.Fatal("drop link not enforced")
	}
	if topo.CutAt(1, 2, at(12)) {
		t.Fatal("drop link cut the reverse direction")
	}

	// Delay link: one-way, window-scoped.
	if d := topo.ExtraDelay(0, 1, at(12)); d != 4*ms {
		t.Fatalf("delay = %v, want 4ms", d)
	}
	if d := topo.ExtraDelay(1, 0, at(12)); d != 0 {
		t.Fatalf("reverse delay = %v, want 0", d)
	}
	if d := topo.ExtraDelay(0, 1, at(20)); d != 0 {
		t.Fatalf("delay outside window = %v, want 0", d)
	}

	// Gray slowdown.
	if f := topo.Slowdown(1, at(105)); f != 8 {
		t.Fatalf("slowdown = %v, want 8", f)
	}
	if f := topo.Slowdown(1, at(99)); f != 1 {
		t.Fatalf("slowdown before window = %v, want 1", f)
	}
	if f := topo.Slowdown(0, at(105)); f != 1 {
		t.Fatalf("slowdown for other machine = %v, want 1", f)
	}
	if !topo.HasGray(1) || topo.HasGray(0) {
		t.Fatal("HasGray wrong")
	}

	if len(topo.Windows()) != 4 {
		t.Fatalf("windows = %v", topo.Windows())
	}

	// Burst windows: a load multiplier over time, overlap multiplies.
	bspec, err := fault.ParseSpec("burst=4@30ms+30ms,burst=2@50ms+5ms")
	if err != nil {
		t.Fatal(err)
	}
	btopo := fault.NewTopology(bspec)
	if f := btopo.BurstAt(at(29)); f != 1 {
		t.Fatalf("burst before window = %v, want 1", f)
	}
	if f := btopo.BurstAt(at(30)); f != 4 {
		t.Fatalf("burst at window start = %v, want 4", f)
	}
	if f := btopo.BurstAt(at(52)); f != 8 {
		t.Fatalf("overlapping bursts = %v, want 8", f)
	}
	if f := btopo.BurstAt(at(60)); f != 1 {
		t.Fatalf("burst after window = %v, want 1", f)
	}
	if len(btopo.Windows()) != 2 {
		t.Fatalf("burst windows = %v", btopo.Windows())
	}

	// Nil-safety mirrors the nil *Plan contract.
	var nilTopo *fault.Topology
	if nilTopo.CutAt(0, 1, 0) || nilTopo.ExtraDelay(0, 1, 0) != 0 ||
		nilTopo.Slowdown(0, 0) != 1 || nilTopo.HasGray(0) || nilTopo.BurstAt(0) != 1 ||
		nilTopo.Windows() != nil {
		t.Fatal("nil topology not inert")
	}
	if fault.NewTopology(fault.Spec{DropProb: 0.5}) != nil {
		t.Fatal("topology for spec without topology rules should be nil")
	}
}
