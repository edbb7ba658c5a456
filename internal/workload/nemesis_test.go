package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
)

// nemesisSpec builds a KV spec running under the given -faults rules.
func nemesisSpec(t *testing.T, rules string) KVSpec {
	t.Helper()
	spec := DefaultKV()
	fs, err := fault.ParseSpec(rules)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", rules, err)
	}
	spec.FaultSpec = fs
	return spec
}

// TestKVPartitionPrimaryIsolated is the tentpole acceptance scenario:
// isolate the initial primary's machine past the membership deadline,
// then heal. The backup must win at least one election, every client op
// must complete, the merged history must linearize, and no (group,
// epoch) pair may be acked by both ranks.
func TestKVPartitionPrimaryIsolated(t *testing.T) {
	spec := nemesisSpec(t, "partition=1|0.2.3@60ms+120ms")
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != kvTotalOps(spec) || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, kvTotalOps(spec))
	}
	if res.Mismatches != 0 {
		t.Fatalf("consistency mismatches: %d", res.Mismatches)
	}
	if st := res.ReplicaTotals(); st.Elections == 0 {
		t.Fatal("no election while the primary was partitioned away")
	}
	if !res.Check.Linearizable {
		t.Fatalf("history not linearizable: %s", res.Check)
	}
	if len(res.SplitBrain) != 0 {
		t.Fatalf("split brain: %v", res.SplitBrain)
	}
	// The topology plan was installed and actually severed packets.
	if res.Topo == nil {
		t.Fatal("no topology plan on the result")
	}
	var severed uint64
	for _, sys := range res.Machines {
		for _, n := range sys.Links {
			severed += n.NIC.Severed
		}
	}
	if severed == 0 {
		t.Fatal("partition window enforced nothing at the link plane")
	}
}

// TestKVCleanSplitHeals runs the clean two-against-two split — each
// client machine grouped with one replica — and the heal. Both sides
// keep serving their own clients during the split (each side elects the
// other's groups), yet the merged history stays linearizable and the
// epoch fencing prevents any same-epoch double-ack.
func TestKVCleanSplitHeals(t *testing.T) {
	spec := nemesisSpec(t, "partition=0.1|2.3@20ms+30ms")
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != kvTotalOps(spec) || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, kvTotalOps(spec))
	}
	if res.Mismatches != 0 {
		t.Fatalf("consistency mismatches: %d", res.Mismatches)
	}
	st := res.ReplicaTotals()
	if st.Elections < 2 {
		t.Fatalf("elections = %d, want both sides to elect during the split", st.Elections)
	}
	if st.SoloAcks == 0 {
		t.Fatal("no solo acks — the split never degraded replication")
	}
	if st.Merged == 0 {
		t.Fatal("no rejoin merge — solo-acked writes were never reconciled on heal")
	}
	if !res.Check.Linearizable {
		t.Fatalf("history not linearizable: %s", res.Check)
	}
	if len(res.SplitBrain) != 0 {
		t.Fatalf("split brain: %v", res.SplitBrain)
	}
}

// TestKVGrayReplica runs the initial primary at one fifth speed for a
// window. A gray machine is alive — it answers heartbeats, so no
// election fires spuriously — just slow; the run must still complete
// and linearize, and the slowdown must be visible as a longer run than
// the healthy baseline.
func TestKVGrayReplica(t *testing.T) {
	healthy := RunKV(kern.MK40, machine.ArchDS3100, DefaultKV())
	spec := nemesisSpec(t, "gray=1:5@20ms+60ms")
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != kvTotalOps(spec) || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, kvTotalOps(spec))
	}
	if !res.Check.Linearizable {
		t.Fatalf("history not linearizable: %s", res.Check)
	}
	if res.Elapsed <= healthy.Elapsed {
		t.Fatalf("gray run elapsed %v <= healthy %v — the slowdown charged nothing",
			res.Elapsed, healthy.Elapsed)
	}
}

// TestKVAsymmetricLink severs only the backup-to-primary direction of
// the replica link: the primary's heartbeats still reach the backup,
// the backup's never arrive. Exactly one side (the primary's machine)
// declares its peer dead; the backup still hears a live primary and
// must not also elect — no double-elect, and the history linearizes.
func TestKVAsymmetricLink(t *testing.T) {
	spec := nemesisSpec(t, "link=2>1:drop@40ms+60ms")
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != kvTotalOps(spec) || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, kvTotalOps(spec))
	}
	deaths := func(i int) uint64 { return res.Machines[i].NetTotals().DeathsDetected }
	if deaths(1) == 0 {
		t.Fatal("the silenced side never declared its peer dead")
	}
	if deaths(2) != 0 {
		t.Fatalf("machine 2 declared %d deaths despite hearing every heartbeat", deaths(2))
	}
	if deaths(0) != 0 || deaths(3) != 0 {
		t.Fatalf("client machines declared deaths: %d, %d", deaths(0), deaths(3))
	}
	// rank0's machine saw silence and elected over rank1's groups; rank1
	// heard rank0 alive throughout and must not have elected.
	if e := res.Replicas[0].Stats.Elections; e == 0 {
		t.Fatal("rank 0 never elected over its silent peer")
	}
	if e := res.Replicas[1].Stats.Elections; e != 0 {
		t.Fatalf("rank 1 elected %d times while hearing a live peer — double-elect", e)
	}
	if res.Mismatches != 0 {
		t.Fatalf("consistency mismatches: %d", res.Mismatches)
	}
	if !res.Check.Linearizable {
		t.Fatalf("history not linearizable: %s", res.Check)
	}
	if len(res.SplitBrain) != 0 {
		t.Fatalf("split brain: %v", res.SplitBrain)
	}
}

// TestKVBrokenBuildFlagged runs the deliberately broken replicas (no
// rejoin state merge, no deposed stall) under the clean split: the
// linearizability checker must flag the lost solo-acked writes that the
// identical spec survives on the real build (TestKVCleanSplitHeals).
func TestKVBrokenBuildFlagged(t *testing.T) {
	spec := nemesisSpec(t, "partition=0.1|2.3@20ms+30ms")
	spec.Break = true
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)

	if res.Check.Linearizable {
		t.Fatal("checker passed the deliberately broken build")
	}
	if len(res.Check.Violations) == 0 {
		t.Fatal("no violation recorded for the broken build")
	}
	if !strings.Contains(res.Check.String(), "NOT linearizable") {
		t.Fatalf("verdict = %q", res.Check)
	}
}

// TestFuzzKV runs a tiny campaign on the real build (must be clean) and
// on the broken build (must find and shrink a violation).
func TestFuzzKV(t *testing.T) {
	opt := FuzzKVOptions{Flavor: kern.MK40, Arch: machine.ArchDS3100, Seed: 7, Count: 3}
	res, err := FuzzKV(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 3 || res.Violations != 0 {
		t.Fatalf("clean campaign: ran %d violations %d", res.Ran, res.Violations)
	}

	opt.Break = true
	opt.Count = 4 // campaign 7's fourth schedule catches the break
	var out bytes.Buffer
	opt.Out = &out
	res, err = FuzzKV(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("fuzzer missed the deliberately broken build")
	}
	if res.MinSpec == "" {
		t.Fatal("no shrunk reproducing spec")
	}
	// The shrunk spec must itself reproduce the violation...
	v, err := fuzzRun(opt, res.MinSeed, strings.Split(res.MinSpec, ","))
	if err != nil {
		t.Fatal(err)
	}
	if !v.bad {
		t.Fatalf("minimal spec %q does not reproduce", res.MinSpec)
	}
	// ...and be locally minimal: it shrank below the generated schedule.
	if n := len(strings.Split(res.MinSpec, ",")); n >= 4 {
		t.Fatalf("shrinker kept %d rules", n)
	}
	if !strings.Contains(out.String(), "minimal repro") {
		t.Fatalf("fuzz output missing the repro line:\n%s", out.String())
	}
	// The repro names the build: schedules are flavor- and arch-dependent.
	if !strings.Contains(out.String(), "-flavor mk40 -arch ds3100 -breakkv\n") {
		t.Fatalf("repro line lacks the campaign's build flags:\n%s", out.String())
	}
}
