package workload

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
)

// runNetRPCOnce executes spec under the given GOMAXPROCS and returns the
// three observable artifacts the determinism contract covers: the
// machsim-format report, the exported Chrome trace bytes, and the
// per-machine fault statistics.
func runNetRPCOnce(t *testing.T, spec NetRPCSpec, procs int) (report, trace, faults string) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)

	spec.Observe = true
	res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)

	var rep bytes.Buffer
	WriteNetRPCReport(&rep, kern.MK40, machine.ArchDS3100, res,
		NetRPCReportOptions{Faults: !spec.FaultSpec.Zero()})

	recs := make([]*obs.Recorder, len(res.Machines))
	for i, sys := range res.Machines {
		recs[i] = sys.K.Obs
	}
	var tr bytes.Buffer
	if err := obs.WriteChrome(&tr, recs...); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}

	var fs bytes.Buffer
	for i, sys := range res.Machines {
		fmt.Fprintf(&fs, "machine %d: %s; net rtx=%d acks=%d dups=%d lost=%d; aborts=%d\n",
			i, sys.FaultStats(), sys.Net.Retransmits, sys.Net.AcksRx,
			sys.Net.DupsDropped, sys.Net.Lost, sys.Aborted)
	}
	return rep.String(), tr.String(), fs.String()
}

// testParallelEquivalence checks that -parallel and GOMAXPROCS have no
// observable effect: report, trace export, and fault statistics are
// byte-identical across sequential/parallel × GOMAXPROCS {1,4}.
func testParallelEquivalence(t *testing.T, spec NetRPCSpec) {
	seq := spec
	seq.Parallel = false
	wantRep, wantTr, wantFS := runNetRPCOnce(t, seq, 1)
	if wantRep == "" || wantTr == "" {
		t.Fatal("baseline run produced empty artifacts")
	}
	for _, procs := range []int{1, 4} {
		for _, par := range []bool{false, true} {
			if !par && procs == 1 {
				continue // the baseline itself
			}
			s := spec
			s.Parallel = par
			rep, tr, fs := runNetRPCOnce(t, s, procs)
			tag := fmt.Sprintf("parallel=%v GOMAXPROCS=%d", par, procs)
			if rep != wantRep {
				t.Errorf("%s: report differs from sequential baseline", tag)
			}
			if tr != wantTr {
				t.Errorf("%s: trace export differs from sequential baseline", tag)
			}
			if fs != wantFS {
				t.Errorf("%s: fault stats differ from sequential baseline", tag)
			}
		}
	}
}

func TestParallelEquivalenceNetRPC(t *testing.T) {
	spec := DefaultNetRPC()
	spec.Pairs = 2
	spec.Clients = 2
	testParallelEquivalence(t, spec)
}

func TestParallelEquivalenceLossyNetRPC(t *testing.T) {
	spec := LossyNetRPC()
	spec.Pairs = 2
	spec.Clients = 2
	testParallelEquivalence(t, spec)
}

// TestParallelEquivalenceSingleMachinePair covers the degenerate shapes:
// one pair (two machines) and the legacy single-client layout.
func TestParallelEquivalenceSingleMachinePair(t *testing.T) {
	testParallelEquivalence(t, DefaultNetRPC())
}

// TestNetRPCCompletesAllClients checks the generalized driver's
// accounting: every client on every pair finishes its full RPC count.
func TestNetRPCCompletesAllClients(t *testing.T) {
	spec := DefaultNetRPC()
	spec.Pairs = 2
	spec.Clients = 3
	spec.Parallel = true
	res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
	want := spec.Pairs * spec.Clients * spec.RPCs
	if res.Completed != want {
		t.Fatalf("Completed = %d, want %d", res.Completed, want)
	}
	if len(res.Machines) != 2*spec.Pairs {
		t.Fatalf("len(Machines) = %d, want %d", len(res.Machines), 2*spec.Pairs)
	}
	if res.Client != res.Machines[0] || res.Server != res.Machines[1] {
		t.Fatal("Client/Server do not alias pair 0's machines")
	}
	for i := range res.DiskReadsDone {
		if res.DiskReadsDone[i] != spec.DiskReads {
			t.Fatalf("DiskReadsDone[%d] = %d, want %d", i, res.DiskReadsDone[i], spec.DiskReads)
		}
	}
}
