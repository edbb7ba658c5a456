// The cluster builder: every multi-machine workload boots, wires, arms
// and drives its machines through this one path, the way every blocking
// subsystem in the kernel goes through one thread_block. A driver
// describes its cluster as a topology (a role per machine plus the
// links between them) and a clusterSpec (fault plan, reliability,
// checks, observation); boot turns that into armed machines, the driver
// installs its role threads and services, and drive runs the cluster to
// quiescence.
package workload

import (
	"fmt"
	"strings"

	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
)

// topology is a cluster's shape: one role label per machine, and the
// point-to-point links between machines. Each link takes the next free
// NIC on both of its ends in list order, so a machine's Links[k] is its
// k-th appearance in links. The role labels head the report's machine
// sections and resolve machsim's -crash aliases.
type topology struct {
	roles []string
	links [][2]int
	// paired names machines by pair and letter ("machine A (client)"),
	// the historical client/server pair headings.
	paired bool
}

// pairTopology is n client/server pairs: machine 2p is pair p's client,
// machine 2p+1 its server, and each pair shares one link.
func pairTopology(pairs int) topology {
	t := topology{paired: true}
	for p := 0; p < pairs; p++ {
		t.roles = append(t.roles, "client", "server")
		t.links = append(t.links, [2]int{2 * p, 2*p + 1})
	}
	return t
}

var (
	// haTopology is the failover cluster: two clients, each wired to
	// the primary and the replica echo server.
	haTopology = topology{
		roles: []string{"client", "primary", "replica", "client"},
		links: [][2]int{{0, 1}, {0, 2}, {3, 1}, {3, 2}},
	}
	// kvTopology is the replicated KV cluster: two clients, each wired
	// to both replicas, plus the replicas' own peer link.
	kvTopology = topology{
		roles: []string{"client", "kv primary", "kv backup", "client"},
		links: [][2]int{{0, 1}, {0, 2}, {3, 1}, {3, 2}, {1, 2}},
	}
	// chainTopology is the service graph: frontend -> cache -> both
	// replicas, plus the replicas' peer link.
	chainTopology = topology{
		roles: []string{"frontend", "cache", "kv primary", "kv backup"},
		links: [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}},
	}
)

// heading is machine i's report section title.
func (t topology) heading(i int) string {
	if !t.paired {
		return fmt.Sprintf("machine %d (%s)", i, t.roles[i])
	}
	letter := "AB"[i%2 : i%2+1]
	if len(t.roles) <= 2 {
		return fmt.Sprintf("machine %s (%s)", letter, t.roles[i])
	}
	return fmt.Sprintf("pair %d machine %s (%s)", i/2, letter, t.roles[i])
}

// crashTopologies are the topologies machsim's -crash resolves aliases
// against. netrpc's is the failover cluster, because -crash implies
// -failover there.
var crashTopologies = map[string]topology{
	"netrpc":   haTopology,
	"kv":       kvTopology,
	"svcgraph": chainTopology,
}

// machineFor returns the first machine whose role is alias, or ends in
// it ("primary" names "kv primary"); "replica" and "backup" are one role.
func (t topology) machineFor(alias string) (int, bool) {
	norm := func(s string) string {
		if s == "backup" {
			return "replica"
		}
		return s
	}
	for i, role := range t.roles {
		if norm(role[strings.LastIndexByte(role, ' ')+1:]) == norm(alias) {
			return i, true
		}
	}
	return 0, false
}

// ResolveCrash parses one machsim -crash value for the named workload.
// The machine part is an index or a role alias of that workload's
// topology (netrpc: client, primary, replica/backup; kv: client,
// primary, replica/backup; svcgraph: frontend, cache, primary,
// replica/backup). An alias the workload lacks is a parse error.
func ResolveCrash(workloadName, val string) (fault.Crash, error) {
	if at := strings.IndexByte(val, '@'); at > 0 {
		if t, ok := crashTopologies[workloadName]; ok {
			if i, ok := t.machineFor(strings.TrimSpace(val[:at])); ok {
				val = fmt.Sprintf("%d%s", i, val[at:])
			}
		}
	}
	return fault.ParseCrash(val)
}

// clusterSpec is what boot arms on every machine of a topology.
type clusterSpec struct {
	topo topology
	cfg  kern.Config
	// wire is the one-way NIC latency of every link
	// (dev.DefaultWireLatency when zero).
	wire machine.Duration
	// faultSeed/faults seed machine i's fault plan at faultSeed+i; the
	// topology rules and crashes in faults apply cluster-wide.
	faultSeed uint64
	faults    fault.Spec
	// reliable runs every link's seq/ack protocol with deadAfter as its
	// membership silence deadline (dev's default when zero). It also
	// selects the stall/deadlock watchdog under debug: the watchdog
	// guards the crash-recovery clusters, while best-effort clusters
	// run the invariant sweep alone.
	reliable  bool
	deadAfter machine.Duration
	// debug arms each kernel's invariant sweep and the driver's
	// naive-sweep cross-check.
	debug bool
	// observe installs a recorder retaining ringCap events (none when
	// zero; see retained) and head-sampling 1 in sample traces. Its host
	// index is the machine index, which salts span ids so they never
	// collide across machines.
	observe bool
	ringCap int
	sample  int
	// parallel drives the horizon rounds on goroutines.
	parallel bool
}

// retained is the event ring a run's recorders keep: capacity events
// when the run asks for its trace (a spec's KeepEvents, set by machsim
// -trace), none otherwise. Histograms, profiles, spans and the census
// come from every event either way.
func retained(keep bool, capacity int) int {
	if keep {
		return capacity
	}
	return 0
}

// cluster is a booted, armed set of machines.
type cluster struct {
	spec     clusterSpec
	machines []*kern.System
	// topo is the shared topology-fault schedule (nil without
	// partition/link/gray/burst rules).
	topo *fault.Topology
}

// boot creates the topology's machines, wires its links, and arms each
// machine in order: fault plan, topology schedule, reliable links, the
// invariant sweep (plus watchdog), and the recorder.
func boot(spec clusterSpec) *cluster {
	n := len(spec.topo.roles)
	if err := spec.faults.CheckMachines(n); err != nil {
		panic(err)
	}
	ms := make([]*kern.System, n)
	for i := range ms {
		ms[i] = kern.New(spec.cfg)
	}
	used := make([]int, n)
	nic := func(i int) *dev.NIC {
		if used[i] == len(ms[i].Links) {
			ms[i].AddLink()
		}
		used[i]++
		return ms[i].Links[used[i]-1].NIC
	}
	for _, l := range spec.topo.links {
		dev.Connect(nic(l[0]), nic(l[1]), spec.wire)
	}
	topo := fault.NewTopology(spec.faults)
	for i, s := range ms {
		s.InjectFaults(spec.faultSeed+uint64(i), spec.faults)
		s.InstallTopology(i, topo)
		if spec.reliable {
			for _, l := range s.Links {
				l.EnableReliable()
				if spec.deadAfter != 0 {
					l.DeadAfter = spec.deadAfter
				}
			}
		}
		if spec.debug {
			s.K.DebugChecks = true
			if spec.reliable {
				s.EnableWatchdog()
			}
		}
		if spec.observe {
			r := s.EnableObservation(spec.ringCap)
			r.SetHost(i)
			r.SetSpanSampling(spec.sample)
		}
	}
	return &cluster{spec: spec, machines: ms, topo: topo}
}

// driveCluster runs a booted cluster to quiescence: Drive, unless a test
// drives the same cluster another way.
var driveCluster = (*kern.Cluster).Drive

// drive schedules the fault plan's machine crashes, runs the cluster to
// quiescence, and stamps each recorder with its machine's memory
// census. It returns the dispatcher steps taken and machine 0's elapsed
// simulated time.
func (c *cluster) drive() (uint64, machine.Duration) {
	for _, cr := range c.spec.faults.Crashes {
		c.machines[cr.Machine].ScheduleCrash(cr.At, cr.RebootAfter)
	}
	kc := kern.NewCluster(c.machines...)
	kc.CrossCheck = c.spec.debug
	clock := c.machines[0].K.Clock
	start := clock.Now()
	steps := driveCluster(kc, c.spec.parallel)
	for _, s := range c.machines {
		if r := s.K.Obs; r != nil {
			r.Census = s.MemoryCensus()
		}
	}
	return steps, machine.Duration(clock.Now() - start)
}
