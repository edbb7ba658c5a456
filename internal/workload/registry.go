package workload

import (
	"bytes"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
)

// RegisteredWorkload is one named cluster workload with a canonical
// run-to-report function: it boots the workload's default spec (plus the
// canonical crash plan where the workload is about recovery), drives it,
// and renders the machsim-format report. The report is the workload's
// determinism contract — same name, same bytes, regardless of the
// parallel flag, GOMAXPROCS, or how many times it has run before.
type RegisteredWorkload struct {
	Name   string
	Report func(parallel bool) string
}

// Registry lists every cluster workload under its machsim name. Tests
// iterate it so a newly added workload is covered by the determinism
// regression without touching the test.
func Registry() []RegisteredWorkload {
	crash1 := []fault.Crash{{
		Machine:     1,
		At:          machine.Duration(40 * 1e6),
		RebootAfter: machine.Duration(40 * 1e6),
	}}
	return []RegisteredWorkload{
		{Name: "netrpc", Report: func(parallel bool) string {
			spec := DefaultNetRPC()
			spec.Parallel = parallel
			res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
			var buf bytes.Buffer
			WriteNetRPCReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{})
			return buf.String()
		}},
		{Name: "lossy-netrpc", Report: func(parallel bool) string {
			spec := LossyNetRPC()
			spec.Parallel = parallel
			res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
			var buf bytes.Buffer
			WriteNetRPCReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{Faults: true})
			return buf.String()
		}},
		{Name: "failover", Report: func(parallel bool) string {
			spec := DefaultNetRPC()
			spec.Failover = true
			spec.FaultSpec.Crashes = crash1
			spec.Parallel = parallel
			res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
			var buf bytes.Buffer
			WriteNetRPCReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{})
			return buf.String()
		}},
		{Name: "kv", Report: func(parallel bool) string {
			spec := DefaultKV()
			spec.FaultSpec.Crashes = crash1
			spec.Parallel = parallel
			res := RunKV(kern.MK40, machine.ArchDS3100, spec)
			var buf bytes.Buffer
			WriteKVReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{})
			return buf.String()
		}},
		{Name: "kv-nemesis", Report: func(parallel bool) string {
			// The canonical nemesis run: isolate the initial primary past
			// the membership deadline, then heal. The spec string is the
			// same grammar machsim's -faults flag takes.
			spec := DefaultKV()
			fs, err := fault.ParseSpec("partition=1|0.2.3@60ms+120ms")
			if err != nil {
				panic(err)
			}
			spec.FaultSpec = fs
			spec.Parallel = parallel
			res := RunKV(kern.MK40, machine.ArchDS3100, spec)
			var buf bytes.Buffer
			WriteKVReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{})
			return buf.String()
		}},
		{Name: "mtload", Report: func(parallel bool) string {
			// Registry-sized run: small cluster, few sessions, with the
			// driver's naive-sweep cross-check armed so the determinism
			// regression also exercises the incremental-horizon oracle.
			spec := DefaultMTLoad()
			spec.SessionsPerTenant = 20
			spec.Parallel = parallel
			spec.DebugChecks = true
			return MTLoadReport(kern.MK40, machine.ArchDS3100, spec)
		}},
		{Name: "storm", Report: func(parallel bool) string {
			// Controls-on arm: fast (the off arm's collapsed drain is
			// covered by the storm tests, not the registry sweep).
			spec := DefaultStorm()
			spec.Parallel = parallel
			return StormReport(kern.MK40, machine.ArchDS3100, spec)
		}},
		{Name: "svcgraph", Report: func(parallel bool) string {
			spec := DefaultSvcGraph()
			spec.FaultSpec.Crashes = []fault.Crash{{
				Machine:     2,
				At:          machine.Duration(40 * 1e6),
				RebootAfter: machine.Duration(40 * 1e6),
			}}
			spec.Parallel = parallel
			res := RunSvcGraph(kern.MK40, machine.ArchDS3100, spec)
			var buf bytes.Buffer
			WriteSvcGraphReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{})
			return buf.String()
		}},
	}
}
