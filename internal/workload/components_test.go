package workload

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
)

// TestComponentDriveMatchesGlobalRounds drives the same clusters three
// ways: Drive(false), which runs each connected component of the link
// graph to quiescence on its own; Drive(true), which hands whole
// components to the worker pool (or fans one component's rounds out);
// and by hand through the whole-cluster round primitives, every round
// spanning every machine, as Drive ran before it split the cluster. All
// three must leave every machine with the same clock, kernel stats,
// fault stats and netmsg counters, and print the same report. The
// runs arm DebugChecks, so Drive also cross-checks its partition and
// every component's horizon.
func TestComponentDriveMatchesGlobalRounds(t *testing.T) {
	ds := machine.ArchDS3100
	crash := mustCrash(t, "3@30ms:reboot+30ms")
	pairs := LossyNetRPC()
	pairs.Pairs, pairs.Clients, pairs.RPCs = 3, 2, 20
	pairs.FaultSpec.Crashes = crash
	kv := DefaultKV()
	kv.FaultSpec.Crashes = mustCrash(t, "1@40ms:reboot+40ms")
	kv.DebugChecks = true

	cases := []struct {
		name       string
		components int
		run        func(parallel bool) ([]*kern.System, string)
	}{
		{"mtload-16", 8, func(parallel bool) ([]*kern.System, string) {
			res := RunMTLoad(kern.MK40, ds, MTLoadSpec{Machines: 16, Tenants: 4,
				SessionsPerTenant: 100, Ops: 2, Seed: 1, Parallel: parallel, DebugChecks: true})
			var b bytes.Buffer
			WriteMTLoadReport(&b, res)
			return res.Machines, b.String()
		}},
		{"netrpc-lossy-pairs-crash", 3, func(parallel bool) ([]*kern.System, string) {
			spec := pairs
			spec.Parallel = parallel
			res := RunNetRPC(kern.MK40, ds, spec)
			var b bytes.Buffer
			WriteNetRPCReport(&b, kern.MK40, ds, res, NetRPCReportOptions{Faults: true})
			return res.Machines, b.String()
		}},
		{"kv-crash", 1, func(parallel bool) ([]*kern.System, string) {
			spec := kv
			spec.Parallel = parallel
			res := RunKV(kern.MK40, ds, spec)
			var b bytes.Buffer
			WriteKVReport(&b, kern.MK40, ds, res, NetRPCReportOptions{Faults: true})
			return res.Machines, b.String()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := fingerprint(tc.run(false))
			par := fingerprint(tc.run(true))
			components := 0
			driveCluster = func(kc *kern.Cluster, _ bool) uint64 {
				defer func() { driveCluster = (*kern.Cluster).Drive }()
				components = len(kc.ComponentsForTest())
				kc.SetDeferredForTest(true)
				defer kc.SetDeferredForTest(false)
				var total uint64
				for {
					steps, ok := kc.RoundForTest()
					total += steps
					if !ok {
						return total
					}
				}
			}
			whole := fingerprint(tc.run(false))
			if components != tc.components {
				t.Fatalf("%d components, want %d", components, tc.components)
			}
			if par != seq {
				t.Errorf("Drive(true) differs from Drive(false):\n%s", firstDiff(seq, par))
			}
			if whole != seq {
				t.Errorf("whole-cluster rounds differ from Drive(false):\n%s", firstDiff(seq, whole))
			}
		})
	}
}

// fingerprint renders what a driven cluster left behind: each machine's
// clock, kernel stats, fault stats and netmsg counters, then the report.
func fingerprint(machines []*kern.System, report string) string {
	var b bytes.Buffer
	for i, s := range machines {
		fmt.Fprintf(&b, "machine %d: now %d\n  kernel %+v\n  faults %+v\n  net %+v\n",
			i, s.K.Clock.Now(), *s.K.Stats, s.FaultStats(), s.NetTotals())
	}
	b.WriteString(report)
	return b.String()
}
