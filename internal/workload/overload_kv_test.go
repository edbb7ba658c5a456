package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/overload"
)

// kvOverloadSpec is the shared armed-KV scenario: a long gray window on
// the primary slow enough that queued writes are already past their
// deadline when dequeued, so the replica-tier Expired path really runs.
func kvOverloadSpec() KVSpec {
	spec := DefaultKV()
	spec.Ops = 120
	spec.Keyspan = 8
	spec.PutPer10k = 5000
	spec.Overload = overload.DefaultPolicy()
	fs, err := fault.ParseSpec("gray=1:12@20ms+60ms")
	if err != nil {
		panic(err)
	}
	spec.FaultSpec = fs
	return spec
}

// TestKVOverloadCleanUnderGray pins the soundness half of the shedding
// contract: an armed KV run under a deep gray failure sheds real work at
// both the client and replica tiers — and everything it shed was a
// definite no-op, so the history stays linearizable and Track-mode
// bookkeeping sees no mismatches.
func TestKVOverloadCleanUnderGray(t *testing.T) {
	res := RunKV(kern.MK40, machine.ArchDS3100, kvOverloadSpec())
	co, ro := res.ClientOvTotals(), res.ReplicaOvTotals()
	if co.Expired == 0 {
		t.Fatalf("client tier never shed on deadline: %+v", co)
	}
	if co.BreakerFastFail == 0 || co.BreakerOpens == 0 {
		t.Fatalf("breaker never engaged: %+v", co)
	}
	if ro.Expired == 0 {
		t.Fatalf("replica tier never shed expired work: %+v", ro)
	}
	if !res.Check.Linearizable {
		t.Fatalf("armed run not linearizable: %s", res.Check)
	}
	if res.Check.Rejected == 0 {
		t.Fatal("checker saw no rejected ops despite tier shedding")
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d mismatches", res.Mismatches)
	}
}

// TestKVOverloadBreakFlagged is the negative control: a replica that
// applies an already-expired write before claiming it was shed plants a
// phantom value, and the linearizability checker must flag the later
// read that observes it. If this test ever passes with a clean verdict,
// the rejected-ops-are-no-ops exclusion has gone unsound.
func TestKVOverloadBreakFlagged(t *testing.T) {
	spec := kvOverloadSpec()
	spec.BreakOverload = true
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)
	if res.Check.Linearizable {
		t.Fatalf("phantom expired write not flagged: %s", res.Check)
	}
	if res.Mismatches == 0 {
		t.Fatal("Track-mode bookkeeping missed the phantom write")
	}
}

// TestKVOverloadReportSection pins the report plumbing: armed runs get
// the overload policy and per-tier counters; legacy runs stay
// byte-identical (no overload section at all).
func TestKVOverloadReportSection(t *testing.T) {
	res := RunKV(kern.MK40, machine.ArchDS3100, kvOverloadSpec())
	var buf bytes.Buffer
	WriteKVReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{})
	out := buf.String()
	for _, want := range []string{"overload: on:deadline=", "client:", "replicas:", "expired"} {
		if !strings.Contains(out, want) {
			t.Errorf("armed report missing %q:\n%s", want, out)
		}
	}

	legacy := RunKV(kern.MK40, machine.ArchDS3100, DefaultKV())
	buf.Reset()
	WriteKVReport(&buf, kern.MK40, machine.ArchDS3100, legacy, NetRPCReportOptions{})
	if strings.Contains(buf.String(), "overload:") {
		t.Errorf("legacy report grew an overload section:\n%s", buf.String())
	}
}

// TestFuzzKVOverload extends the fuzzing campaign to the armed build: a
// clean armed campaign must stay violation-free (everything the controls
// shed was a definite no-op under every random nemesis schedule), and
// the -breakoverload campaign must be caught, with the printed repro
// command carrying the arming flags.
func TestFuzzKVOverload(t *testing.T) {
	opt := FuzzKVOptions{Flavor: kern.MK40, Arch: machine.ArchDS3100, Seed: 7, Count: 3,
		Overload: overload.DefaultPolicy()}
	res, err := FuzzKV(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 3 || res.Violations != 0 {
		t.Fatalf("armed clean campaign: ran %d violations %d", res.Ran, res.Violations)
	}

	opt.BreakOverload = true
	opt.Count = 4 // campaign 7's fourth schedule dequeues expired writes
	var out bytes.Buffer
	opt.Out = &out
	res, err = FuzzKV(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("fuzzer missed the broken overload shedding")
	}
	if !strings.Contains(out.String(), "-overload on:") ||
		!strings.Contains(out.String(), "-breakoverload") {
		t.Fatalf("repro command missing arming flags:\n%s", out.String())
	}
}
