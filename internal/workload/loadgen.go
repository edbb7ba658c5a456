// Open-loop multi-tenant load generator: the scale workload behind the
// O(active)-cost cluster driver. K tenants run thousands of client
// sessions spread across the cluster by the load balancer; each session
// generates arrivals on its own jittered open-loop schedule, sleeping
// through its think time as a blocked continuation, so the cluster
// carries blocked-thread populations in the 10^5..10^6 range while every
// machine's kernel-stack pool stays bounded by its processor count — the
// paper's space claim at cluster scale. Latency is charged from each
// op's intended arrival time, so a session that falls behind keeps
// accumulating the queueing delay in its histogram instead of silently
// pausing the load (no coordinated omission).
package workload

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// MTLoadSpec sizes the multi-tenant load run.
type MTLoadSpec struct {
	// Machines is the cluster size; must be even and >= 2. Machine 2p is
	// pair p's client host, machine 2p+1 its echo-service host.
	Machines int
	// Tenants is how many tenants MakeTenants builds.
	Tenants int
	// SessionsPerTenant is each tenant's cluster-wide session count
	// (DefaultSessionsPerMachine * Machines when 0).
	SessionsPerTenant int
	// Ops is how many RPCs each session completes.
	Ops int
	// Seed feeds every session's arrival-jitter RNG stream.
	Seed uint64
	// Parallel drives the horizon rounds on the worker pool; results are
	// byte-identical to the sequential rounds.
	Parallel bool
	// DebugChecks arms the kernel invariant sweep on every machine and
	// the cluster driver's naive-sweep cross-check on every round.
	DebugChecks bool
	// KeepEvents retains each machine's newest mtRing kernel events for
	// the trace export (machsim -trace); Profile feeds them to the
	// profile report (machsim -profile). Without either, the recorders
	// take no kernel events and hold only the tenant histograms.
	KeepEvents bool
	Profile    bool
}

// mtRing is a traced run's per-machine event ring: small, so
// 256-machine traces stay affordable.
const mtRing = 512

// DefaultSessionsPerMachine scales the blocked-thread population with
// the cluster: at 256 machines and 4 tenants the default run holds
// ~10^5 concurrently blocked sessions.
const DefaultSessionsPerMachine = 100

// mtServerWorkers is the echo-service thread count per server machine.
const mtServerWorkers = 4

// DefaultMTLoad returns the small smoke-test configuration.
func DefaultMTLoad() MTLoadSpec {
	return MTLoadSpec{Machines: 8, Tenants: 4, Ops: 2, Seed: 1}
}

// TenantStats aggregates one tenant's outcome across all its sessions.
type TenantStats struct {
	Name     string
	Sessions int
	Ops      uint64
	Attained uint64
	Hist     *obs.Histogram
}

// MTLoadResult reports one multi-tenant run.
type MTLoadResult struct {
	Spec     MTLoadSpec
	Machines []*kern.System
	Tenants  []TenantSpec
	// Placement[pair][tenant] is the balancer's session assignment.
	Placement [][]int
	PerTenant []TenantStats
	Steps     uint64
	Elapsed   machine.Duration
}

// thinker is one open-loop workload's think sleep: the syscall name
// (also the wait label) and the continuation that resumes the session.
// Each workload has its own, so traces and profiles name the workload
// whose session slept.
type thinker struct {
	name string
	done *core.Continuation
}

var (
	tenantThink = &thinker{"tenant-think", core.NewContinuation("tenant_think_done", resumeThink)}
	stormThink  = &thinker{"storm-think", core.NewContinuation("storm_think_done", resumeThink)}
)

// resumeThink returns 0 from a think sleep.
func resumeThink(e *core.Env) { e.K.ThreadSyscallReturn(e, 0) }

// thinkSleep is the body of an open-loop session's think-time syscall
// (k.name): it parks the calling thread as a blocked continuation until
// until, the session's next intended arrival, then resumes it through
// k.done. The wake-up is the kernel's closure-free timer (WakeAt).
// Transfers control.
func thinkSleep(e *core.Env, until machine.Time, k *thinker) {
	th := e.Cur()
	e.K.WakeAt(until, th)
	e.K.SetState(th, core.StateWaiting)
	e.K.Block(e, stats.BlockInternal, k.done, nil, 96, k.name)
}

// mtSession is one tenant session: an open-loop arrival generator that
// sleeps through each think gap as a blocked continuation, then issues
// one echo RPC and waits for the reply. The arrival schedule advances
// independently of completions: when a reply is late the next intended
// arrival is already in the past, the session skips the sleep, and the
// lateness lands in the latency histogram.
//
// A parked session is this record, its thread and its reply port, so
// the record keeps its generator by value and its per-session counts in
// 32 bits.
type mtSession struct {
	sys    *kern.System
	tenant *TenantSpec
	proxy  *ipc.Port
	reply  *ipc.Port
	hist   *obs.Histogram
	rng    RNG

	intended machine.Time
	tenantIx int32
	ops      int32
	done     int32
	attained int32
	arriving bool
}

// mtSleep and mtRPC are a session's two syscall bodies. They reach the
// session through the calling thread's program, so a parked session
// holds no closure. Both transfer control.
func mtSleep(e *core.Env) {
	thinkSleep(e, e.Cur().Program.(*mtSession).intended, tenantThink)
}

func mtRPC(e *core.Env) {
	s := e.Cur().Program.(*mtSession)
	req := s.sys.IPC.NewMessage(1, s.tenant.MsgBytes, nil, s.reply)
	s.sys.IPC.MachMsg(e, ipc.MsgOptions{Send: req, SendTo: s.proxy, ReceiveFrom: s.reply})
}

func (s *mtSession) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.sys.IPC.FreeMessage(m)
		lat := uint64(s.sys.K.Clock.Now() - s.intended)
		s.hist.Observe(lat)
		if machine.Duration(lat) <= s.tenant.SLA {
			s.attained++
		}
		s.done++
	}
	if s.done >= s.ops {
		return core.Exit()
	}
	if !s.arriving {
		s.intended += machine.Time(s.rng.Burst(uint64(s.tenant.Think)))
		s.arriving = true
		if s.intended > s.sys.K.Clock.Now() {
			return core.Syscall(tenantThink.name, mtSleep)
		}
	}
	s.arriving = false
	return core.Syscall("mach_msg(tenant-rpc)", mtRPC)
}

// RunMTLoad boots the cluster, places every tenant session, and drives
// the horizon rounds to quiescence. Fully deterministic: with the same
// spec the run is byte-identical regardless of spec.Parallel or
// GOMAXPROCS.
func RunMTLoad(flavor kern.Flavor, arch machine.Arch, spec MTLoadSpec) *MTLoadResult {
	if spec.Machines < 2 {
		spec.Machines = 2
	}
	if spec.Machines%2 != 0 {
		spec.Machines++
	}
	if spec.Tenants < 1 {
		spec.Tenants = 1
	}
	if spec.SessionsPerTenant <= 0 {
		spec.SessionsPerTenant = DefaultSessionsPerMachine * spec.Machines
	}

	pairs := spec.Machines / 2
	tenants := MakeTenants(spec.Tenants, spec.SessionsPerTenant)
	placement := placeSessions(tenants, pairs)
	loads := pairLoads(placement)
	// The warmup delays every session's first arrival so the whole
	// population is booted — and parked as blocked continuations — before
	// traffic starts; it is also the instant the memory census reads the
	// space claim at full scale. Booting a session costs a dispatch plus
	// a blocking syscall on the client machine's single processor, so the
	// ramp is sized for the busiest pair to finish booting while everyone
	// else sleeps.
	warmup := machine.Duration(5_000_000 + 250_000*slices.Max(loads))
	res := &MTLoadResult{Spec: spec, Tenants: tenants, Placement: placement}

	c := boot(clusterSpec{
		topo: pairTopology(pairs), cfg: kern.Config{Flavor: flavor, Arch: arch},
		debug: spec.DebugChecks, observe: true, ringCap: retained(spec.KeepEvents, mtRing),
		profile: spec.Profile, parallel: spec.Parallel,
	})
	res.Machines = c.machines
	threadNames, replyNames := mtSessionNames(tenants)
	hists := make([]*obs.Histogram, len(tenants))
	var sessions []*mtSession
	for p := 0; p < pairs; p++ {
		a, b := c.machines[2*p], c.machines[2*p+1]
		st := b.NewTask("echo-server")
		sport := b.IPC.NewPort("echo")
		// Every session on the pair can land a request in the same
		// wire-latency window.
		sport.QueueLimit = int32(2 * (loads[p] + 1))
		b.Net.Export("echo", sport)
		for w := 0; w < mtServerWorkers; w++ {
			name := core.NameOf("srv")
			if w > 0 {
				name = core.IndexedName("srv-", w)
			}
			b.Start(st.NewNamedThread(name, NewEchoServer(b, sport), 20))
		}

		ct := a.NewTask("tenants")
		for ti := range tenants {
			tn := &tenants[ti]
			if placement[p][ti] > 0 {
				hists[ti] = a.K.Obs.Service("tenant " + tn.Name)
			}
			for j := 0; j < placement[p][ti]; j++ {
				s := &mtSession{
					sys: a, tenant: tn, tenantIx: int32(ti),
					proxy: a.Net.ProxyFor("echo"),
					reply: a.IPC.NewNamedPort(replyNames[ti].Index(j)),
					rng: RNG{state: spec.Seed ^ uint64(p)<<40 ^
						uint64(ti)<<20 ^ uint64(j)},
					hist:     hists[ti],
					ops:      int32(spec.Ops),
					intended: a.K.Clock.Now() + machine.Time(warmup),
				}
				sessions = append(sessions, s)
				a.Start(ct.NewNamedThread(threadNames[ti].Index(j), s, 10))
			}
		}
	}
	res.Steps, res.Elapsed = c.drive()

	res.PerTenant = make([]TenantStats, len(tenants))
	for ti := range tenants {
		res.PerTenant[ti] = TenantStats{
			Name: tenants[ti].Name,
			Hist: mergedService(res.Machines, "tenant "+tenants[ti].Name),
		}
	}
	for _, s := range sessions {
		ts := &res.PerTenant[s.tenantIx]
		ts.Sessions++
		ts.Ops += uint64(s.done)
		ts.Attained += uint64(s.attained)
	}
	return res
}

// mtSessionNames returns, per tenant, the names its sessions index: the
// j-th session of tenant ti on a client machine is the thread
// "tenants/<tenant>-j" with reply port "rp-ti-j". A tenant's sessions
// share the two bases, so booting them builds no name string.
func mtSessionNames(tenants []TenantSpec) (threads, replies []core.Name) {
	threads = make([]core.Name, len(tenants))
	replies = make([]core.Name, len(tenants))
	for ti := range tenants {
		threads[ti] = core.NameOf(tenants[ti].Name + "-")
		replies[ti] = core.NameOf("rp-" + strconv.Itoa(ti) + "-")
	}
	return threads, replies
}

// WriteMTLoadReport prints the aggregate run report: the cluster
// headline, the per-tenant latency and SLA-attainment table, the load
// balancer's placement spread, and the cluster-wide memory census that
// carries the space claim (stacks bounded by processors while blocked
// threads scale with sessions). Aggregate-only by design — at hundreds
// of machines, per-machine sections would drown the signal. Pure
// function of the run.
func WriteMTLoadReport(w io.Writer, res *MTLoadResult) {
	spec := res.Spec
	pairs := spec.Machines / 2
	totalSessions := 0
	for _, t := range res.Tenants {
		totalSessions += t.Sessions
	}
	fmt.Fprintf(w, "multi-tenant load report\n")
	fmt.Fprintf(w, "========================\n")
	fmt.Fprintf(w, "machines %d (%d pairs), tenants %d, sessions %d, ops/session %d, server workers %d\n",
		spec.Machines, pairs, len(res.Tenants), totalSessions, spec.Ops, mtServerWorkers)
	fmt.Fprintf(w, "elapsed %s simulated, %d dispatcher steps\n\n",
		obs.FmtNS(uint64(res.Elapsed)), res.Steps)

	fmt.Fprintf(w, "%-14s %9s %9s  %-9s %-9s %-9s %-9s %s\n",
		"tenant", "sessions", "ops", "p50", "p99", "max", "SLA", "attained")
	for i := range res.PerTenant {
		ts := &res.PerTenant[i]
		tn := &res.Tenants[i]
		attained := 100.0
		if ts.Ops > 0 {
			attained = 100 * float64(ts.Attained) / float64(ts.Ops)
		}
		p50, p99, max := "-", "-", "-"
		if ts.Hist.Count > 0 {
			p50 = obs.FmtNS(ts.Hist.Quantile(0.50))
			p99 = obs.FmtNS(ts.Hist.Quantile(0.99))
			max = obs.FmtNS(ts.Hist.Max)
		}
		fmt.Fprintf(w, "%-14s %9d %9d  %-9s %-9s %-9s %-9s %.1f%%\n",
			ts.Name, ts.Sessions, ts.Ops, p50, p99, max,
			obs.FmtNS(uint64(tn.SLA)), attained)
	}

	minS, maxS := 0, 0
	if loads := pairLoads(res.Placement); len(loads) > 0 {
		minS, maxS = slices.Min(loads), slices.Max(loads)
	}
	fmt.Fprintf(w, "\nload balancer: sessions per pair min %d / max %d (spread %d)\n",
		minS, maxS, maxS-minS)

	maxStacks := writeClusterCensus(w, res.Machines)
	fmt.Fprintf(w, "; max per-machine stacks %d\n", maxStacks)
}

// pairLoads is how many sessions the balancer placed on each pair.
func pairLoads(placement [][]int) []int {
	loads := make([]int, len(placement))
	for p, counts := range placement {
		for _, n := range counts {
			loads[p] += n
		}
	}
	return loads
}

// writeClusterCensus prints the machines' summed memory census — the
// space claim at cluster scale — without a trailing newline, and
// returns the largest single machine's stack high-water.
func writeClusterCensus(w io.Writer, machines []*kern.System) (maxStacks int) {
	var sum obs.Census
	for _, sys := range machines {
		mc := sys.MemoryCensus()
		sum.StackHighWater += mc.StackHighWater
		sum.BlockedHighWater += mc.BlockedHighWater
		sum.LiveThreads += mc.LiveThreads
		maxStacks = max(maxStacks, mc.StackHighWater)
	}
	fmt.Fprintf(w, "memory census (cluster): %d stacks high-water vs %d blocked threads high-water (%d live threads)",
		sum.StackHighWater, sum.BlockedHighWater, sum.LiveThreads)
	return maxStacks
}
