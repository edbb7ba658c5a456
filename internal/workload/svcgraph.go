// SvcGraph is the multi-tier service-graph workload: four machines in a
// frontend -> cache -> replicated-KV chain. Frontend threads issue Gets
// and Puts to the cache tier; cache workers answer hits locally and run
// misses and write-throughs against the KV replica group through their
// own embedded callers. Per-tier latency comes out of the obs service
// histograms ("frontend" end-to-end, "cache.fetch" for backend trips,
// "kv.replicate" for the replication path), so one report shows how a
// backend crash propagates up the graph.
package workload

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/svc"
)

// The service graph's fixed shape: each frontend thread issues
// svcGraphOps operations over a private key range of svcGraphKeyspan keys
// (small, so repeated Gets hit the cache) with a read-heavy
// svcGraphPutPer10k write-through mix, against a cache tier of
// svcGraphWorkers threads.
const (
	svcGraphOps       = 80
	svcGraphKeyspan   = 12
	svcGraphPutPer10k = 1500
	svcGraphWorkers   = 2
)

// SvcGraphSpec sizes the service-graph workload.
type SvcGraphSpec struct {
	// Frontends is the frontend thread count.
	Frontends int
	// Capacity is the cache tier's entry bound (FIFO eviction beyond it).
	Capacity int
	// Seed drives the frontend scripts; FaultSeed/FaultSpec the fault
	// plan (crash machine indices: 0 frontend, 1 cache, 2 kv primary,
	// 3 kv backup).
	Seed      uint64
	FaultSeed uint64
	FaultSpec fault.Spec
	// SampleEvery is the causal-tracing head-sampling rate as in KVSpec:
	// keep the 1-in-N hash class of trace ids; 0 or 1 samples every op.
	SampleEvery int
	// KeepEvents retains kernel events for the trace export as in KVSpec.
	KeepEvents bool
	// Parallel / DebugChecks as in the other workload specs.
	Parallel    bool
	DebugChecks bool
}

// DefaultSvcGraph returns the standard three-tier run: three frontend
// threads over the two-worker cache with a capacity squeeze, so the
// cache both absorbs traffic and evicts.
func DefaultSvcGraph() SvcGraphSpec {
	return SvcGraphSpec{
		Frontends: 3,
		Capacity:  16,
		Seed:      1991,
	}
}

// SvcGraphResult reports one service-graph run.
type SvcGraphResult struct {
	Machines []*kern.System
	Cache    *svc.CacheConfig
	Replicas [svc.NumRanks]*svc.ReplicaConfig

	Completed  int
	Failed     int
	Mismatches uint64
	Salvaged   uint64

	Elapsed  machine.Duration
	Steps    uint64
	Recovery RecoveryStats
	// Topo is the scheduled topology-fault plan (nil when the spec has
	// no partition/link/gray rules).
	Topo *fault.Topology
}

// ReplicaTotals sums the backend replicas' service counters.
func (r *SvcGraphResult) ReplicaTotals() svc.ReplicaStats { return replicaTotals(r.Replicas) }

// Machines is the number of machines the spec boots.
func (SvcGraphSpec) Machines() int { return len(chainTopology.roles) }

// RunSvcGraph boots and drives the three-tier chain: machine 0 runs the
// frontend threads, machine 1 the cache tier, machines 2 and 3 the KV
// replicas.
func RunSvcGraph(flavor kern.Flavor, arch machine.Arch, spec SvcGraphSpec) *SvcGraphResult {
	frontends := max(spec.Frontends, 1)
	tmo := provisionTimeouts(arch)
	c := boot(clusterSpec{
		topo: chainTopology, cfg: kern.Config{Flavor: flavor, Arch: arch},
		faultSeed: spec.FaultSeed, faults: spec.FaultSpec,
		reliable: true, deadAfter: tmo.deadAfter, debug: spec.DebugChecks,
		observe: true, ringCap: retained(spec.KeepEvents, obs.DefaultCapacity),
		sample: spec.SampleEvery, parallel: spec.Parallel,
	})
	res := &SvcGraphResult{Machines: c.machines, Topo: c.topo}

	smap := svc.NewShardMap(0, 0)
	res.Cache, res.Replicas = installBackend(c.machines, smap, tmo, svc.CacheConfig{
		Workers: svcGraphWorkers, Capacity: spec.Capacity, Frontends: frontends,
	}, false)

	// Frontend threads: plain callers aimed at the cache port. Both rank
	// slots route over the frontend's single link — the cache is the only
	// service they know.
	fronts := make([]*svc.Caller, frontends)
	for j := range fronts {
		fronts[j] = &svc.Caller{
			Sys: c.machines[0], Name: core.IndexedName("fe", j), ID: j,
			Map: smap, Links: [svc.NumRanks]int{0, 0},
			Port: svc.CachePortName, Timeout: tmo.rpcTimeout,
			HistName: "frontend",
			Ops:      kvOps(spec.Seed, j, svcGraphOps, svcGraphKeyspan, svcGraphPutPer10k),
			Track:    true,
		}
	}
	startCallers(c.machines[0], "frontends", "frontend", fronts)

	res.Steps, res.Elapsed = c.drive()
	t := callerTotals(fronts)
	res.Completed, res.Failed, res.Mismatches, res.Salvaged = t.Done, t.Failed, t.Mismatches, t.Salvaged
	res.Recovery.fill(res.Machines)
	res.Recovery.Salvaged = res.Salvaged
	res.Recovery.Failed = uint64(res.Failed)
	return res
}

// installBackend installs the chain topology's service tiers from the
// cache's sizing and overload policy: the KV replicas on machines 2 and
// 3, peered on their Links[1] with the cache's workers as their only
// clients, and the cache on machine 1, reaching rank 0 on Links[1] and
// rank 1 on Links[2]. The cache config is durable, its contents
// volatile — a crashed cache comes back empty and refills from the
// backend. breakOv runs the broken-shedding replicas.
func installBackend(ms []*kern.System, smap svc.ShardMap, tmo svcTimeouts, cache svc.CacheConfig, breakOv bool) (*svc.CacheConfig, [svc.NumRanks]*svc.ReplicaConfig) {
	replicas := installReplicas(ms[2:4], svc.ReplicaConfig{
		Map: smap, PeerLink: 1, Clients: cache.Workers,
		RenewEvery: tmo.renewEvery, IdleExit: tmo.idleExit,
		Overload: cache.Overload, BreakOverload: breakOv,
	})
	cache.Map, cache.Links = smap, [svc.NumRanks]int{1, 2}
	cache.Timeout, cache.IdleExit = tmo.rpcTimeout, tmo.idleExit
	ccfg := &cache
	ms[1].RegisterService("cache", func(s *kern.System) {
		svc.InstallCache(s, ccfg)
	})
	return ccfg, replicas
}

// WriteSvcGraphReport prints the three-tier run in machsim's output
// format: headline, tier counters, merged per-tier latency lines, then
// the standard per-machine sections.
func WriteSvcGraphReport(w io.Writer, flavor kern.Flavor, arch machine.Arch, res *SvcGraphResult, opt NetRPCReportOptions) {
	fmt.Fprintf(w, "SvcGraph on %v/%v — %d frontend ops completed (%d failed, %d mismatches) in %.2f simulated ms (%d cluster steps)\n",
		flavor, arch, res.Completed, res.Failed, res.Mismatches,
		float64(res.Elapsed)/1e6, res.Steps)
	cs := res.Cache.Stats
	fmt.Fprintf(w, "cache: %d hits, %d misses, %d write-throughs, %d evictions\n",
		cs.Hits, cs.Misses, cs.WriteThroughs, cs.Evictions)
	t := res.ReplicaTotals()
	fmt.Fprintf(w, "services: %d elections, %d fencing rejections, %d deposed, %d rejoins served, %d syncs\n",
		t.Elections, t.FencingRejections, t.Deposed, t.RejoinsServed, t.Syncs)
	fmt.Fprintf(w, "  leader gets %d, puts %d, replicated %d, solo acks %d\n",
		t.Gets, t.Puts, t.Replicated, t.SoloAcks)
	writeServiceLatency(w, res.Machines, res.Elapsed,
		[]string{"frontend", "cache.fetch", "kv.replicate"})
	writeCritPathSection(w, res.Machines)
	for i, sys := range res.Machines {
		writeMachineSection(w, chainTopology.heading(i), sys, opt)
	}
	writeRecoveryReport(w, res.Recovery, res.Topo, res.Machines, false)
}
