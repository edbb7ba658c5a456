// KV is the replicated-service workload: four machines — two client
// machines and two replica servers — running the svc package's sharded
// key/value store. Each client machine hosts caller threads that route
// Gets and Puts to the believed leader of each key's shard group; the
// replicas replicate synchronously, renew epoch-numbered leases, and
// elect a new leader when the membership layer declares the old one
// dead. A run with `-crash primary@...:reboot+...` therefore completes
// 100% of its client operations: callers fail over to the elected
// backup, and the rebooted primary's rejoin probe is fenced before it
// can serve with stale leases.
package workload

import (
	"fmt"
	"io"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/svc"
)

// KVSpec sizes the replicated KV workload.
type KVSpec struct {
	// Ops is how many operations each caller thread issues; Clients the
	// caller threads per client machine (two client machines total).
	Ops     int
	Clients int
	// Keyspan is each caller's private key range; PutPer10k the write mix.
	Keyspan   uint64
	PutPer10k int
	// Seed drives the operation scripts (keys, values, read/write mix).
	Seed uint64
	// FaultSeed/FaultSpec are the per-machine fault plan; Crashes in the
	// spec name machines 0..3 (client, primary, backup, client).
	FaultSeed uint64
	FaultSpec fault.Spec
	// SampleEvery is the head-sampling rate for causal tracing: keep the
	// 1-in-N hash class of operation trace ids. 0 or 1 samples every op.
	SampleEvery int
	// KeepEvents retains each machine's newest obs.DefaultCapacity
	// kernel events for the trace export (machsim -trace); Profile feeds
	// them to each recorder's statistics for the profile report (machsim
	// -profile). Without either, the recorders take no kernel events:
	// reports, service histograms, spans and the census do not read them.
	KeepEvents bool
	Profile    bool
	// Parallel runs the cluster's horizon rounds with one goroutine per
	// machine; results are byte-identical to the sequential rounds.
	Parallel bool
	// DebugChecks arms the kernel invariant sweep and the watchdog.
	DebugChecks bool
	// Break disables the replicas' rejoin-merge and deposed-stall safety
	// machinery — the deliberately broken build the linearizability
	// checker exists to catch. Never set outside tests and machsim's
	// -breakkv flag.
	Break bool
	// Overload arms the end-to-end overload controls (-overload on):
	// client deadlines stamped into the wire header, per-client retry
	// budgets, a breaker per client machine, and deadline shedding plus
	// CoDel admission at the replicas. The zero value leaves every
	// legacy path untouched.
	Overload overload.Policy
	// BreakOverload runs the deliberately broken replica that applies an
	// already-expired write before claiming it was shed — the phantom
	// write the linearizability checker must flag. Never set outside
	// tests and machsim's -breakoverload flag.
	BreakOverload bool
}

// svcTimeouts is the resolved timeout provisioning for a service
// cluster on one architecture.
type svcTimeouts struct {
	rpcTimeout machine.Duration
	renewEvery machine.Duration
	idleExit   machine.Duration
	deadAfter  machine.Duration
}

// provisionTimeouts scales each svc/dev default timeout by how much
// slower the target architecture runs a reference kernel copy than the
// DS3100 baseline: a liveness deadline tuned on the baseline machine
// would misfire on one several times slower, where honest queueing
// delays under load routinely exceed it. The scale is a pure function of
// the cost models, so every run (and every driver) computes the same
// values.
func provisionTimeouts(arch machine.Arch) svcTimeouts {
	base := machine.NewCostModel(machine.ArchDS3100)
	m := machine.NewCostModel(arch)
	f := m.TimeMicros(machine.WordCopyCost) / base.TimeMicros(machine.WordCopyCost)
	if f < 1 {
		f = 1
	}
	scaled := func(d machine.Duration) machine.Duration {
		return machine.Duration(float64(d) * f)
	}
	return svcTimeouts{
		rpcTimeout: scaled(svc.DefaultCallTimeout),
		renewEvery: scaled(svc.DefaultRenewEvery),
		idleExit:   scaled(svc.DefaultIdleExit),
		deadAfter:  scaled(dev.DefaultDeadAfter),
	}
}

// DefaultKV returns the standard replicated KV run: two client machines
// with two callers each, a 40% write mix, and enough operations that a
// mid-run crash lands inside real traffic.
func DefaultKV() KVSpec {
	return KVSpec{
		Ops:       60,
		Clients:   2,
		Keyspan:   32,
		PutPer10k: 4000,
		Seed:      1991,
	}
}

// KVResult reports one replicated KV run.
type KVResult struct {
	Machines []*kern.System
	// Replicas are the two durable replica configurations (rank order);
	// their Stats span every incarnation.
	Replicas [svc.NumRanks]*svc.ReplicaConfig

	// Completed/Failed/Mismatches aggregate the caller threads.
	Completed  int
	Failed     int
	Mismatches uint64
	Redirects  uint64
	Failovers  uint64
	Salvaged   uint64

	Elapsed  machine.Duration
	Steps    uint64
	Recovery RecoveryStats

	// History is every caller's recorded operation log, merged in caller
	// creation order; Check is the linearizability verdict over it and
	// SplitBrain any (group, epoch) pairs both ranks acked writes under.
	History    []check.Op
	Check      check.Result
	SplitBrain []check.AckKey
	// Topo is the scheduled topology-fault plan (nil when the spec has
	// no partition/link/gray rules).
	Topo *fault.Topology
	// Policy echoes the armed overload policy (nil on legacy runs);
	// ClientOv holds each client machine's shedding scoreboard.
	Policy   *overload.Policy
	ClientOv []*overload.Stats
}

// ClientOvTotals sums the client machines' shedding counters.
func (r *KVResult) ClientOvTotals() overload.Stats {
	var t overload.Stats
	for _, s := range r.ClientOv {
		t.Expired += s.Expired
		t.Rejected += s.Rejected
		t.BudgetDenied += s.BudgetDenied
		t.BreakerFastFail += s.BreakerFastFail
		t.BreakerOpens += s.BreakerOpens
	}
	return t
}

// ReplicaOvTotals sums the replica tier's shedding counters.
func (r *KVResult) ReplicaOvTotals() overload.Stats { return replicaOvTotals(r.Replicas) }

// ReplicaTotals sums the two replicas' service counters.
func (r *KVResult) ReplicaTotals() svc.ReplicaStats { return replicaTotals(r.Replicas) }

// replicaOvTotals sums a replica pair's shedding counters.
func replicaOvTotals(replicas [svc.NumRanks]*svc.ReplicaConfig) overload.Stats {
	var t overload.Stats
	for _, cfg := range replicas {
		if cfg == nil || cfg.Ov == nil {
			continue
		}
		t.Admitted += cfg.Ov.Admitted
		t.Expired += cfg.Ov.Expired
		t.Rejected += cfg.Ov.Rejected
	}
	return t
}

// replicaTotals sums a replica pair's service counters.
func replicaTotals(replicas [svc.NumRanks]*svc.ReplicaConfig) svc.ReplicaStats {
	var t svc.ReplicaStats
	for _, cfg := range replicas {
		if cfg == nil || cfg.Stats == nil {
			continue
		}
		s := cfg.Stats
		t.Elections += s.Elections
		t.FencingRejections += s.FencingRejections
		t.Deposed += s.Deposed
		t.SoloAcks += s.SoloAcks
		t.Syncs += s.Syncs
		t.RejoinsServed += s.RejoinsServed
		t.Gets += s.Gets
		t.Puts += s.Puts
		t.Replicated += s.Replicated
		t.Merged += s.Merged
		t.Stalled += s.Stalled
	}
	return t
}

// kvOps renders one caller's deterministic operation script. Every
// caller owns the key range tagged with its global id, so Track-mode
// consistency checking is sound, and the first reference to each key may
// be a Get (a not-found read of an unwritten key is not a mismatch).
func kvOps(seed uint64, clientID int, ops int, keyspan uint64, putPer10k int) []svc.KVOp {
	rng := NewRNG(seed + uint64(clientID)*0x9e3779b9)
	out := make([]svc.KVOp, ops)
	for i := range out {
		key := uint64(clientID)<<32 | rng.Uint64n(keyspan)
		if rng.Hit(putPer10k) {
			out[i] = svc.KVOp{Op: svc.OpPut, Key: key, Val: rng.Next()}
		} else {
			out[i] = svc.KVOp{Op: svc.OpGet, Key: key}
		}
	}
	return out
}

// Machines is the number of machines the spec boots.
func (KVSpec) Machines() int { return len(kvTopology.roles) }

// RunKV boots and drives the replicated KV cluster: machines 0 and 3
// are clients, 1 and 2 the rank-0 and rank-1 replicas. Clients reach
// rank 0 on Links[0] and rank 1 on Links[1]; the replicas reach each
// other on Links[2], their replication and rejoin channel. Every link
// runs the reliable protocol — leases, elections and fencing all ride
// its membership stamps.
func RunKV(flavor kern.Flavor, arch machine.Arch, spec KVSpec) *KVResult {
	clientsPer := max(spec.Clients, 1)
	tmo := provisionTimeouts(arch)
	// The service histograms (kv.op, kv.replicate) live on the
	// recorder, so observation is always on for this workload.
	c := boot(clusterSpec{
		topo: kvTopology, cfg: kern.Config{Flavor: flavor, Arch: arch},
		faultSeed: spec.FaultSeed, faults: spec.FaultSpec,
		reliable: true, deadAfter: tmo.deadAfter, debug: spec.DebugChecks,
		observe: true, ringCap: retained(spec.KeepEvents, obs.DefaultCapacity),
		profile: spec.Profile, sample: spec.SampleEvery, parallel: spec.Parallel,
	})
	res := &KVResult{Machines: c.machines, Topo: c.topo}

	smap := svc.NewShardMap(0, 0)
	res.Replicas = installReplicas(c.machines[1:3], svc.ReplicaConfig{
		Map: smap, PeerLink: 2, Clients: 2 * clientsPer,
		RenewEvery: tmo.renewEvery, IdleExit: tmo.idleExit,
		Break:    spec.Break,
		Overload: spec.Overload, BreakOverload: spec.BreakOverload,
	})

	// Callers: the program objects are durable (script position, acked
	// map, stats survive their machine's crash); the installer re-arms
	// each with a fresh reply port and thread per incarnation.
	pol := spec.Overload
	if pol.Enabled {
		res.Policy = &pol
	}
	var clis []*svc.Caller
	mkClients := func(s *kern.System, base int, tag string) {
		// Overload state shared within one client machine only: the
		// breaker and scoreboard are per machine (the parallel driver
		// serializes a machine's threads), retry budgets per caller.
		var ov *overload.Stats
		var brk *overload.Breaker
		if pol.Enabled {
			ov = &overload.Stats{}
			brk = overload.NewBreaker(pol.Breaker, pol.Cooldown, spec.Seed^uint64(base+1)*0x9e3779b97f4a7c15)
			res.ClientOv = append(res.ClientOv, ov)
		}
		mine := make([]*svc.Caller, clientsPer)
		for j := 0; j < clientsPer; j++ {
			id := base + j
			cli := &svc.Caller{
				Sys: s, Name: core.IndexedName(tag, j), ID: id,
				Map: smap, Links: [svc.NumRanks]int{0, 1},
				Timeout: tmo.rpcTimeout, HistName: "kv.op",
				Ops:      kvOps(spec.Seed, id, spec.Ops, spec.Keyspan, spec.PutPer10k),
				Track:    true,
				Record:   true,
				Overload: &pol, Breaker: brk, OvStats: ov,
			}
			if pol.Enabled {
				cli.Budget = overload.NewRetryBudget(pol.Budget, pol.Refill)
			}
			mine[j] = cli
			clis = append(clis, cli)
		}
		startCallers(s, "kv-clients", "kv-client", mine)
	}
	mkClients(c.machines[0], 0, "kv-cli")
	mkClients(c.machines[3], clientsPer, "kv-cli-b")

	res.Steps, res.Elapsed = c.drive()
	t := callerTotals(clis)
	res.Completed, res.Failed, res.Mismatches = t.Done, t.Failed, t.Mismatches
	res.Redirects, res.Failovers, res.Salvaged = t.Redirects, t.Failovers, t.Salvaged
	res.Recovery.fill(res.Machines)
	res.Recovery.Failovers = res.Failovers
	res.Recovery.Salvaged = res.Salvaged
	res.Recovery.Failed = uint64(res.Failed)
	res.History, res.Check, res.SplitBrain = checkHistory(clis, res.Replicas)
	return res
}

// installReplicas registers the KV replica pair on two machines, in rank
// order, from one prototype config. Each durable config (leases, done
// bits, stats) is created once here; RegisterService re-runs the
// installer on every warm reboot, so a crashed replica comes back in
// recovery and rejoins.
func installReplicas(ms []*kern.System, proto svc.ReplicaConfig) [svc.NumRanks]*svc.ReplicaConfig {
	var cfgs [svc.NumRanks]*svc.ReplicaConfig
	for rank, s := range ms {
		rcfg := proto
		rcfg.Rank, rcfg.PeerRank = rank, svc.NumRanks-1-rank
		cfgs[rank] = &rcfg
		s.RegisterService("kv-replica", func(s *kern.System) {
			svc.InstallReplica(s, &rcfg)
		})
	}
	return cfgs
}

// startCallers registers the service that starts each caller as a
// thread of one task. The callers are durable; every incarnation resets
// them onto its fresh ports.
func startCallers(s *kern.System, service, task string, clis []*svc.Caller) {
	s.RegisterService(service, func(s *kern.System) {
		ct := s.NewTask(task)
		for _, c := range clis {
			c.Reset(s)
			s.Start(ct.NewNamedThread(c.Name, c, 10))
		}
	})
}

// callerTotals sums the callers' lifetime accounting.
func callerTotals(clis []*svc.Caller) svc.CallerStats {
	var t svc.CallerStats
	for _, c := range clis {
		t.Done += c.Stats.Done
		t.Failed += c.Stats.Failed
		t.Redirects += c.Stats.Redirects
		t.Failovers += c.Stats.Failovers
		t.Salvaged += c.Stats.Salvaged
		t.Mismatches += c.Stats.Mismatches
	}
	return t
}

// checkHistory merges the callers' recorded histories in caller order,
// checks them for linearizability, and checks the replicas' ack logs
// for split brain.
func checkHistory(clis []*svc.Caller, replicas [svc.NumRanks]*svc.ReplicaConfig) ([]check.Op, check.Result, []check.AckKey) {
	var hist []check.Op
	for _, c := range clis {
		hist = append(hist, c.History...)
	}
	logs := make([]map[check.AckKey]uint64, 0, svc.NumRanks)
	for _, cfg := range replicas {
		if cfg != nil {
			logs = append(logs, cfg.AckLog)
		}
	}
	return hist, check.Linearizable(hist), check.SplitBrain(logs)
}

// writeServiceLatency prints one merged-across-machines latency line per
// service tier, with per-tier throughput against the run's elapsed time.
func writeServiceLatency(w io.Writer, machines []*kern.System, elapsed machine.Duration, tiers []string) {
	fmt.Fprintf(w, "\nservice latency (all machines):\n")
	for _, name := range tiers {
		m := mergedService(machines, name)
		if m.Count == 0 {
			fmt.Fprintf(w, "  %-14s (no samples)\n", name)
			continue
		}
		rate := 0.0
		if elapsed > 0 {
			rate = float64(m.Count) / (float64(elapsed) / 1e6)
		}
		fmt.Fprintf(w, "  %-14s count %d (%.1f/ms), p50 %s, p99 %s, max %s\n",
			name, m.Count, rate,
			obs.FmtNS(m.Quantile(0.50)), obs.FmtNS(m.Quantile(0.99)), obs.FmtNS(m.Max))
	}
}

// mergedService merges every machine's service histogram of that name.
func mergedService(machines []*kern.System, name string) *obs.Histogram {
	m := &obs.Histogram{Name: name}
	for _, sys := range machines {
		if r := sys.K.Obs; r != nil {
			for _, h := range r.ServiceHistograms() {
				if h.Name == name {
					m.Merge(h)
				}
			}
		}
	}
	return m
}

// WriteKVReport prints the replicated KV run in machsim's output format:
// the service-level headline and counters, the merged per-tier latency
// lines, then the standard per-machine sections. Pure function of the
// run — sequential and parallel drivers produce identical bytes.
func WriteKVReport(w io.Writer, flavor kern.Flavor, arch machine.Arch, res *KVResult, opt NetRPCReportOptions) {
	fmt.Fprintf(w, "KV on %v/%v — %d client ops completed (%d failed, %d mismatches) in %.2f simulated ms (%d cluster steps)\n",
		flavor, arch, res.Completed, res.Failed, res.Mismatches,
		float64(res.Elapsed)/1e6, res.Steps)
	t := res.ReplicaTotals()
	fmt.Fprintf(w, "services: %d elections, %d fencing rejections, %d deposed, %d rejoins served, %d syncs\n",
		t.Elections, t.FencingRejections, t.Deposed, t.RejoinsServed, t.Syncs)
	fmt.Fprintf(w, "  leader gets %d, puts %d, replicated %d, solo acks %d, merged %d, stalled %d\n",
		t.Gets, t.Puts, t.Replicated, t.SoloAcks, t.Merged, t.Stalled)
	fmt.Fprintf(w, "  client redirects %d, failovers %d, ops salvaged %d\n",
		res.Redirects, res.Failovers, res.Salvaged)
	if res.Policy != nil {
		co, ro := res.ClientOvTotals(), res.ReplicaOvTotals()
		fmt.Fprintf(w, "overload: %s\n", res.Policy)
		fmt.Fprintf(w, "  client: %d expired, %d rejected, %d budget-denied, %d breaker-fastfail, %d breaker-opens\n",
			co.Expired, co.Rejected, co.BudgetDenied, co.BreakerFastFail, co.BreakerOpens)
		fmt.Fprintf(w, "  replicas: %d admitted, %d expired, %d rejected\n",
			ro.Admitted, ro.Expired, ro.Rejected)
	}
	fmt.Fprintf(w, "checker: %s; split brain: %s\n", res.Check, splitBrainStr(res.SplitBrain))
	writeServiceLatency(w, res.Machines, res.Elapsed, []string{"kv.op", "kv.replicate"})
	writeCritPathSection(w, res.Machines)
	for i, sys := range res.Machines {
		writeMachineSection(w, kvTopology.heading(i), sys, opt)
	}
	writeRecoveryReport(w, res.Recovery, res.Topo, res.Machines, false)
}

// splitBrainStr renders the split-brain verdict for the report headline.
func splitBrainStr(bad []check.AckKey) string {
	if len(bad) == 0 {
		return "none"
	}
	s := fmt.Sprintf("%d same-epoch double-acks (first: group %d epoch %d)",
		len(bad), bad[0].Group, bad[0].Epoch)
	return s
}

// writeNemesisBody prints the scheduled topology-fault timeline and what
// each machine's NICs actually enforced — the partition timeline of the
// recovery section. No-op when the run had no topology schedule.
func writeNemesisBody(w io.Writer, topo *fault.Topology, machines []*kern.System) {
	if topo == nil {
		return
	}
	fmt.Fprintf(w, "\nnemesis schedule:\n")
	for _, line := range topo.Windows() {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "  enforced at the link plane:\n")
	for i, sys := range machines {
		var severed, delayed uint64
		for _, n := range sys.Links {
			severed += n.NIC.Severed
			delayed += n.NIC.LinkDelayed
		}
		fmt.Fprintf(w, "    machine %d: %d packets severed, %d link-delayed\n",
			i, severed, delayed)
	}
}
