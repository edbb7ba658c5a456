package workload

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
)

// readerRun runs one cluster workload under flavor, with the profile
// report reading the kernel events (profile) or with no reader for
// them, and returns its machsim-format report and its machines.
type readerRun func(t *testing.T, flavor kern.Flavor, profile bool) (string, []*kern.System)

// readerRows are the cluster workloads TestEventsOnlyForAReader runs:
// kv through a primary crash, the storm, the service graph, mtload and
// netrpc's failover cluster through a crash. netrpc installs recorders
// only when asked to (Observe), and they retain events.
var readerRows = []struct {
	name string
	run  readerRun
}{
	{"kv-crash", func(t *testing.T, flavor kern.Flavor, profile bool) (string, []*kern.System) {
		spec := DefaultKV()
		spec.FaultSpec.Crashes = mustCrash(t, "1@40ms:reboot+40ms")
		spec.Profile = profile
		res := RunKV(flavor, machine.ArchDS3100, spec)
		var buf bytes.Buffer
		WriteKVReport(&buf, flavor, machine.ArchDS3100, res, NetRPCReportOptions{Faults: true})
		return buf.String(), res.Machines
	}},
	{"storm", func(t *testing.T, flavor kern.Flavor, profile bool) (string, []*kern.System) {
		spec := DefaultStorm()
		spec.Profile = profile
		res := RunStorm(flavor, machine.ArchDS3100, spec)
		var buf bytes.Buffer
		WriteStormReport(&buf, flavor, machine.ArchDS3100, res)
		return buf.String(), res.Machines
	}},
	{"svcgraph", func(t *testing.T, flavor kern.Flavor, profile bool) (string, []*kern.System) {
		spec := DefaultSvcGraph()
		spec.Profile = profile
		res := RunSvcGraph(flavor, machine.ArchDS3100, spec)
		var buf bytes.Buffer
		WriteSvcGraphReport(&buf, flavor, machine.ArchDS3100, res, NetRPCReportOptions{})
		return buf.String(), res.Machines
	}},
	{"mtload", func(t *testing.T, flavor kern.Flavor, profile bool) (string, []*kern.System) {
		spec := DefaultMTLoad()
		spec.Machines, spec.SessionsPerTenant = 4, 20
		spec.Profile = profile
		res := RunMTLoad(flavor, machine.ArchDS3100, spec)
		var buf bytes.Buffer
		WriteMTLoadReport(&buf, res)
		return buf.String(), res.Machines
	}},
	{"netrpc-failover", func(t *testing.T, flavor kern.Flavor, profile bool) (string, []*kern.System) {
		spec := DefaultNetRPC()
		spec.Failover, spec.FaultSpec.Crashes = true, mustCrash(t, "1@40ms:reboot+40ms")
		spec.Observe = profile
		res := RunNetRPC(flavor, machine.ArchDS3100, spec)
		var buf bytes.Buffer
		WriteNetRPCReport(&buf, flavor, machine.ArchDS3100, res, NetRPCReportOptions{Faults: true})
		return buf.String(), res.Machines
	}},
}

// TestEventsOnlyForAReader pins both halves of a recorder under every
// kernel. With no reader for kernel events, no recorder takes any: no
// kind is counted, nothing is retained, no latency sample or profile
// row exists (the statistics are folded per counted event, so a zero
// count also means no per-thread latency record). With the profile
// reader on, the events are counted. Either way the report and every
// machine's service histograms, span chunks and census are the same,
// because none of them is a kernel event.
func TestEventsOnlyForAReader(t *testing.T) {
	for _, flavor := range []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25} {
		for _, row := range readerRows {
			t.Run(flavor.FlagName()+"/"+row.name, func(t *testing.T) {
				report, quiet := row.run(t, flavor, false)
				profReport, profiled := row.run(t, flavor, true)
				if report != profReport {
					t.Fatalf("report differs with the profile reader on, %s", firstDiff(profReport, report))
				}
				for i, sys := range quiet {
					r, pr := sys.K.Obs, profiled[i].K.Obs
					if r.TakesEvents() {
						t.Fatalf("machine %d: a recorder without a reader takes events", i)
					}
					if !pr.TakesEvents() {
						t.Fatalf("machine %d: the profiled run's recorder takes no events", i)
					}
					var counted uint64
					for _, n := range pr.KindCounts {
						counted += n
					}
					if counted == 0 {
						t.Fatalf("machine %d: the profiled run counted no events", i)
					}
					if r == nil {
						continue
					}
					if r.KindCounts != ([obs.NumKinds]uint64{}) || r.Len() != 0 || r.Dropped != 0 || len(r.Profiles()) != 0 {
						t.Fatalf("machine %d: no reader, yet kinds %v, %d retained, %d dropped, %d profile rows",
							i, r.KindCounts, r.Len(), r.Dropped, len(r.Profiles()))
					}
					for _, h := range r.Hist {
						if h.Count != 0 {
							t.Fatalf("machine %d: no reader, yet %d %s samples", i, h.Count, h.Name)
						}
					}
					if !reflect.DeepEqual(r.ServiceHistograms(), pr.ServiceHistograms()) {
						t.Fatalf("machine %d: service histograms differ with the profile reader on", i)
					}
					if !reflect.DeepEqual(r.SpanChunks(), pr.SpanChunks()) {
						t.Fatalf("machine %d: span chunks differ with the profile reader on", i)
					}
					if r.Census != pr.Census || r.Census.Zero() {
						t.Fatalf("machine %d: census %+v, with the profile reader %+v", i, r.Census, pr.Census)
					}
				}
			})
		}
	}
}
