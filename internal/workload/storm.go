// Storm is the overload scenario: the mtload generator's open-loop
// sessions aimed at the svcgraph service chain (frontend -> cache ->
// replicated KV), plus a scheduled trigger — a demand burst multiplying
// arrival rates while a gray failure slows the cache tier and a link
// fault stretches the frontend's wire. With the overload controls
// disabled the trigger tips the cluster into a metastable retry storm:
// every attempt times out, every timeout retransmits, the cache queue
// grows faster than it drains, and goodput stays collapsed long after
// the trigger clears because the servers are busy answering requests
// whose clients gave up milliseconds ago. With the controls armed —
// deadlines anchored at each op's intended arrival, per-session retry
// budgets, CoDel admission at the cache and KV tiers, and a frontend
// circuit breaker — the same trigger costs a dip, not a collapse: dead
// work is shed for the price of a typed reply, the queue stays near the
// sojourn target, and goodput recovers within a couple of trigger
// durations. The report quantifies both with an offered-vs-goodput
// curve and a machine-checkable verdict line.
package workload

import (
	"fmt"
	"io"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/svc"
)

// The storm's fixed shape.
const (
	// stormHorizon is when arrivals stop — sessions still drain their
	// backlog past it.
	stormHorizon = machine.Duration(190 * 1e6)
	// stormWarmup delays the first arrivals so the cluster is booted
	// before traffic starts; the goodput baseline is measured after it.
	stormWarmup = machine.Duration(10 * 1e6)
	// stormBucket is the goodput curve's bucket width.
	stormBucket = machine.Duration(10 * 1e6)
	// stormKeyspan is each session's private key range; stormPutPer10k
	// the write mix.
	stormKeyspan   = 6
	stormPutPer10k = 3000
	// stormWorkers/stormCapacity shape the cache tier as in the service
	// graph.
	stormWorkers  = 3
	stormCapacity = 256
	// stormTimeout is the frontend sessions' per-attempt receive timeout
	// — deliberately tight, so a slow tier turns into retransmissions
	// (the storm's fuel).
	stormTimeout = machine.Duration(5 * 1e6)
	// stormWire is the one-way NIC latency of every link.
	stormWire = machine.Duration(100 * 1e3)
)

// StormSpec sizes the overload storm scenario.
type StormSpec struct {
	// Sessions is the open-loop session count on the frontend machine.
	Sessions int
	// Think is the mean inter-arrival gap per session (jittered to
	// [Think/2, 3*Think/2) like the mtload generator).
	Think machine.Duration
	// Seed drives the arrival jitter and op scripts; FaultSeed/FaultSpec
	// the trigger schedule (burst/gray/link windows).
	Seed      uint64
	FaultSeed uint64
	FaultSpec fault.Spec
	// Overload is the control policy; Enabled false is the storm's
	// negative arm (-overload off).
	Overload overload.Policy
	// BreakOverload runs the deliberately broken replica that applies an
	// already-expired write before claiming it was shed — the phantom
	// write the linearizability checker must flag. Never set outside
	// tests and machsim's -breakoverload flag.
	BreakOverload bool
	// SampleEvery, KeepEvents, Parallel, DebugChecks as in the other
	// cluster specs.
	SampleEvery int
	KeepEvents  bool
	Parallel    bool
	DebugChecks bool
}

// DefaultStormTrigger is the canonical trigger schedule: for 20ms the
// offered load quintuples while the cache machine runs at 1/10 speed
// and the frontend->cache wire gains 2ms — a burst landing exactly when
// the service tier browns out.
const DefaultStormTrigger = "burst=5@60ms+20ms,gray=1:10@60ms+20ms,link=0>1:delay:2ms@60ms+20ms"

// DefaultStorm returns the canonical storm run (controls on; flip
// Overload.Enabled for the negative arm).
func DefaultStorm() StormSpec {
	fs, err := fault.ParseSpec(DefaultStormTrigger)
	if err != nil {
		panic(err)
	}
	return StormSpec{
		Sessions:  24,
		Think:     machine.Duration(12 * 1e6),
		Seed:      1991,
		FaultSeed: 7,
		FaultSpec: fs,
		Overload:  overload.DefaultPolicy(),
	}
}

// stormRec is one arrival's ledger entry: when it was meant to arrive,
// when it was finally disposed of, and how.
type stormRec struct {
	intended machine.Time
	finished machine.Time
	outcome  svc.Outcome
}

// stormSession is one open-loop session: it generates arrivals on its
// own jittered schedule (multiplied through any active burst window),
// runs each as one operation on its embedded one-shot caller, and never
// lets a slow reply pause the schedule — a late op means the next
// intended arrival is already in the past, so the backlog is issued
// back-to-back. That refusal to self-throttle is what makes the
// generator open-loop, and what lets a retry storm feed itself.
type stormSession struct {
	sys    *kern.System
	cli    *svc.Caller
	rng    *RNG
	topo   *fault.Topology
	spec   *StormSpec
	policy *overload.Policy

	intended machine.Time
	inOp     bool
	doneSent bool
	recs     []stormRec
}

// stormSleep is a session's think syscall body. It reaches the session
// through the calling thread's program, so a parked session holds no
// closure. Transfers control.
func stormSleep(e *core.Env) {
	thinkSleep(e, e.Cur().Program.(*stormSession).intended, stormThink)
}

func (s *stormSession) Next(e *core.Env, t *core.Thread) core.Action {
	for {
		if s.inOp || s.doneSent {
			act, fin := s.cli.Step(e, t)
			if !fin {
				return act
			}
			if s.doneSent {
				return core.Exit()
			}
			s.inOp = false
			s.record()
			s.advance()
		}
		if s.intended >= machine.Time(stormHorizon) {
			s.doneSent = true
			s.cli.StartDone()
			continue
		}
		if s.intended > s.sys.K.Clock.Now() {
			return core.Syscall(stormThink.name, stormSleep)
		}
		s.submit()
		s.inOp = true
	}
}

// submit starts the next arrival on the embedded caller. With controls
// armed the op's deadline anchors at its intended arrival — a
// backlogged arrival that is already older than the deadline budget is
// shed locally before a single byte hits the wire.
func (s *stormSession) submit() {
	key := uint64(s.cli.ID)<<32 | s.rng.Uint64n(stormKeyspan)
	op := svc.KVOp{Op: svc.OpGet, Key: key}
	if s.rng.Hit(stormPutPer10k) {
		op = svc.KVOp{Op: svc.OpPut, Key: key, Val: s.rng.Next()}
	}
	s.cli.IntendedStart = s.intended
	if s.policy.Enabled {
		s.cli.NextDeadline = s.intended + machine.Time(s.policy.Deadline)
	}
	s.cli.StartOp(op)
}

// record writes the finished op's ledger entry.
func (s *stormSession) record() {
	s.recs = append(s.recs, stormRec{
		intended: s.intended,
		finished: s.sys.K.Clock.Now(),
		outcome:  s.cli.Last,
	})
}

// advance moves the open-loop schedule to the next intended arrival:
// one jittered think gap, divided by any active burst factor.
func (s *stormSession) advance() {
	gap := s.rng.Burst(uint64(s.spec.Think))
	if f := s.topo.BurstAt(s.intended); f != 1 {
		gap = uint64(float64(gap) / f)
	}
	if gap == 0 {
		gap = 1
	}
	s.intended += machine.Time(gap)
}

// StormBucket is one goodput-curve bucket: arrivals offered into it (by
// intended time) and dispositions landing in it (by finish time).
type StormBucket struct {
	Offered   int
	Good      int
	Expired   int
	Rejected  int
	Abandoned int
}

// StormResult reports one storm run.
type StormResult struct {
	Spec     StormSpec
	Machines []*kern.System
	Cache    *svc.CacheConfig
	Replicas [svc.NumRanks]*svc.ReplicaConfig
	// FrontOv is the frontend sessions' shedding scoreboard.
	FrontOv *overload.Stats

	Completed  int
	Failed     int
	Mismatches uint64

	Elapsed machine.Duration
	Steps   uint64

	// Curve covers [0, CurveEnd) in stormBucket buckets; dispositions
	// past CurveEnd aggregate into Tail.
	Curve    []StormBucket
	CurveEnd machine.Time
	Tail     StormBucket

	// TriggerAt/TriggerEnd is the union window of every scheduled
	// trigger rule; Baseline the mean per-bucket goodput before it.
	TriggerAt  machine.Time
	TriggerEnd machine.Time
	Baseline   float64

	// Metastable: goodput stayed under 50% of baseline for the whole
	// observation window (>= 5x the trigger duration past its clearing);
	// CollapsedFor is how long the collapse actually lasted (capped at
	// the curve end). Recovered: goodput regained 90% of baseline within
	// 2x the trigger duration of its clearing, after RecoveryAfter.
	Metastable    bool
	CollapsedFor  machine.Duration
	Recovered     bool
	RecoveryAfter machine.Duration

	History    []check.Op
	Check      check.Result
	SplitBrain []check.AckKey
	Topo       *fault.Topology
}

// Machines is the number of machines the spec boots.
func (StormSpec) Machines() int { return len(chainTopology.roles) }

// RunStorm boots and drives the storm cluster: the svcgraph machine
// chain (0 frontend, 1 cache, 2/3 KV replicas) under open-loop session
// load.
func RunStorm(flavor kern.Flavor, arch machine.Arch, spec StormSpec) *StormResult {
	tmo := provisionTimeouts(arch)
	c := boot(clusterSpec{
		topo: chainTopology, cfg: kern.Config{Flavor: flavor, Arch: arch},
		wire: stormWire, faultSeed: spec.FaultSeed, faults: spec.FaultSpec,
		reliable: true, deadAfter: tmo.deadAfter, debug: spec.DebugChecks,
		observe: true, ringCap: retained(spec.KeepEvents, obs.DefaultCapacity),
		sample: spec.SampleEvery, parallel: spec.Parallel,
	})
	res := &StormResult{Spec: spec, Machines: c.machines, Topo: c.topo}
	smap := svc.NewShardMap(0, 0)
	res.Cache, res.Replicas = installBackend(c.machines, smap, tmo, svc.CacheConfig{
		Workers: stormWorkers, Capacity: stormCapacity, Frontends: spec.Sessions,
		Overload: spec.Overload,
	}, spec.BreakOverload)

	// Frontend sessions. The circuit breaker is per frontend machine —
	// one shared view of the downstream's health — while retry budgets
	// are per session, so one greedy session cannot drain its neighbors'
	// tokens. All shared state stays within machine 0, which the
	// parallel driver serializes.
	frontend := c.machines[0]
	res.FrontOv = &overload.Stats{}
	pol := spec.Overload
	var breaker *overload.Breaker
	if pol.Enabled {
		breaker = overload.NewBreaker(pol.Breaker, pol.Cooldown, spec.Seed^0xb4ea4e4)
	}
	sessions := make([]*stormSession, spec.Sessions)
	clis := make([]*svc.Caller, spec.Sessions)
	for j := range sessions {
		cli := &svc.Caller{
			Sys: frontend, Name: core.IndexedName("storm", j), ID: j,
			Map: smap, Links: [svc.NumRanks]int{0, 0},
			Port: svc.CachePortName, Timeout: stormTimeout,
			MaxAttempts: 16,
			HistName:    "frontend", OneShot: true,
			Track: true, Record: true,
			Overload: &pol, Breaker: breaker, OvStats: res.FrontOv,
		}
		if pol.Enabled {
			cli.Budget = overload.NewRetryBudget(pol.Budget, pol.Refill)
		}
		rng := NewRNG(spec.Seed ^ uint64(j+1)*0x9e3779b97f4a7c15)
		sessions[j] = &stormSession{
			sys: frontend, cli: cli, rng: rng, topo: res.Topo,
			spec: &spec, policy: &pol,
			intended: frontend.K.Clock.Now() + machine.Time(stormWarmup) +
				machine.Time(rng.Burst(uint64(spec.Think))),
		}
		clis[j] = cli
	}
	frontend.RegisterService("storm-sessions", func(fsys *kern.System) {
		ct := fsys.NewTask("storm")
		for _, s := range sessions {
			s.cli.Reset(fsys)
			fsys.Start(ct.NewNamedThread(s.cli.Name, s, 10))
		}
	})

	res.Steps, res.Elapsed = c.drive()
	t := callerTotals(clis)
	res.Completed, res.Failed, res.Mismatches = t.Done, t.Failed, t.Mismatches
	res.History, res.Check, res.SplitBrain = checkHistory(clis, res.Replicas)
	var recs []stormRec
	for _, s := range sessions {
		recs = append(recs, s.recs...)
	}
	analyzeStorm(res, recs)
	return res
}

// triggerWindow computes the union window of every scheduled trigger
// rule (bursts, grays, links) in the spec.
func triggerWindow(spec fault.Spec) (at, end machine.Time) {
	first := true
	add := func(a, d machine.Duration) {
		if machine.Time(a) < at || first {
			at = machine.Time(a)
		}
		if machine.Time(a+d) > end {
			end = machine.Time(a + d)
		}
		first = false
	}
	for _, b := range spec.Bursts {
		add(b.At, b.Dur)
	}
	for _, g := range spec.Grays {
		add(g.At, g.Dur)
	}
	for _, l := range spec.Links {
		add(l.At, l.Dur)
	}
	return at, end
}

// analyzeStorm builds the offered-vs-goodput curve and computes the
// metastability / recovery verdicts. Pure integer-bucket arithmetic over
// the session ledgers, so the verdict is as deterministic as the run.
func analyzeStorm(res *StormResult, recs []stormRec) {
	spec := res.Spec
	bucket := machine.Time(stormBucket)
	res.TriggerAt, res.TriggerEnd = triggerWindow(spec.FaultSpec)
	trigDur := res.TriggerEnd - res.TriggerAt

	// The curve observes through the metastability window: 5x the
	// trigger duration past its clearing (and at least the arrival
	// horizon), rounded up to a whole bucket.
	obsEnd := res.TriggerEnd + 5*trigDur
	if h := machine.Time(stormHorizon); obsEnd < h {
		obsEnd = h
	}
	nb := int((obsEnd + bucket - 1) / bucket)
	res.CurveEnd = machine.Time(nb) * bucket
	res.Curve = make([]StormBucket, nb)
	slot := func(at machine.Time) *StormBucket {
		i := int(at / bucket)
		if i >= nb {
			return &res.Tail
		}
		return &res.Curve[i]
	}
	for _, r := range recs {
		slot(r.intended).Offered++
		b := slot(r.finished)
		switch r.outcome {
		case svc.OK:
			b.Good++
		case svc.Expired:
			b.Expired++
		case svc.Rejected:
			b.Rejected++
		default:
			b.Abandoned++
		}
	}

	// Baseline: mean goodput over the full buckets between warmup
	// settling (one bucket past warmup + think) and the trigger.
	warm := machine.Time(stormWarmup) + 2*machine.Time(spec.Think)
	b0 := int((warm + bucket - 1) / bucket)
	b1 := int(res.TriggerAt / bucket)
	if b1 > nb {
		b1 = nb
	}
	n := 0
	sum := 0
	for i := b0; i < b1; i++ {
		sum += res.Curve[i].Good
		n++
	}
	if n > 0 {
		res.Baseline = float64(sum) / float64(n)
	}

	// Collapse scan: from the trigger clearing, how long does goodput
	// stay under 50% of baseline?
	clear := int((res.TriggerEnd + bucket - 1) / bucket)
	half := res.Baseline / 2
	col := 0
	for i := clear; i < nb; i++ {
		if float64(res.Curve[i].Good) >= half && half > 0 {
			break
		}
		col++
	}
	res.CollapsedFor = machine.Duration(col) * machine.Duration(bucket)
	res.Metastable = res.Baseline > 0 &&
		res.CollapsedFor >= 5*machine.Duration(trigDur)

	// Recovery scan: first bucket at/after the clearing that regains 90%
	// of baseline, and whether it lands within 2x the trigger duration.
	res.RecoveryAfter = 0
	res.Recovered = false
	for i := clear; i < nb; i++ {
		if res.Baseline > 0 && float64(res.Curve[i].Good) >= 0.9*res.Baseline {
			res.RecoveryAfter = machine.Duration(i+1)*machine.Duration(bucket) -
				machine.Duration(res.TriggerEnd)
			res.Recovered = res.RecoveryAfter <= 2*machine.Duration(trigDur)
			break
		}
	}
}

// onOff renders the controls arm for the report headline.
func onOff(enabled bool) string {
	if enabled {
		return "on"
	}
	return "off"
}

// WriteStormReport prints the storm run: headline, policy, trigger,
// the offered-vs-goodput curve, the verdict, per-tier shed counters,
// the merged latency lines (including the .fail failure-outcome
// histogram carrying the SLA attribution for shed work), the checker
// verdicts, and the nemesis timeline. Pure function of the run.
func WriteStormReport(w io.Writer, flavor kern.Flavor, arch machine.Arch, res *StormResult) {
	spec := res.Spec
	fmt.Fprintf(w, "overload storm report (controls %s)\n", onOff(spec.Overload.Enabled))
	fmt.Fprintf(w, "====================================\n")
	fmt.Fprintf(w, "%v/%v — frontend -> cache -> kv, %d open-loop sessions, think %s, arrivals until %s\n",
		flavor, arch, spec.Sessions, obs.FmtNS(uint64(spec.Think)), obs.FmtNS(uint64(stormHorizon)))
	fmt.Fprintf(w, "policy: %s\n", spec.Overload)
	fmt.Fprintf(w, "trigger window: [%s, %s)\n",
		obs.FmtNS(uint64(res.TriggerAt)), obs.FmtNS(uint64(res.TriggerEnd)))
	fmt.Fprintf(w, "elapsed %.2f simulated ms (%d cluster steps); %d ops completed, %d failed, %d mismatches\n",
		float64(res.Elapsed)/1e6, res.Steps, res.Completed, res.Failed, res.Mismatches)

	fmt.Fprintf(w, "\noffered vs goodput (%s buckets):\n", obs.FmtNS(uint64(stormBucket)))
	fmt.Fprintf(w, "  %8s %8s %8s %8s %9s %10s\n",
		"bucket", "offered", "good", "expired", "rejected", "abandoned")
	for i, b := range res.Curve {
		fmt.Fprintf(w, "  %8s %8d %8d %8d %9d %10d\n",
			obs.FmtNS(uint64(machine.Time(i)*machine.Time(stormBucket))),
			b.Offered, b.Good, b.Expired, b.Rejected, b.Abandoned)
	}
	if t := res.Tail; t.Offered+t.Good+t.Expired+t.Rejected+t.Abandoned > 0 {
		fmt.Fprintf(w, "  %8s %8d %8d %8d %9d %10d\n",
			"tail", t.Offered, t.Good, t.Expired, t.Rejected, t.Abandoned)
	}

	trigDur := machine.Duration(res.TriggerEnd - res.TriggerAt)
	fmt.Fprintf(w, "\nbaseline goodput %.1f ops/bucket before the trigger\n", res.Baseline)
	if res.Metastable {
		fmt.Fprintf(w, "post-trigger: goodput stayed below 50%% of baseline for %s after the trigger cleared\n",
			obs.FmtNS(uint64(res.CollapsedFor)))
		fmt.Fprintf(w, "verdict: METASTABLE — collapse persisted >= 5x the trigger duration (%s)\n",
			obs.FmtNS(uint64(5*trigDur)))
	} else if res.Recovered {
		fmt.Fprintf(w, "post-trigger: goodput regained 90%% of baseline %s after the trigger cleared\n",
			obs.FmtNS(uint64(res.RecoveryAfter)))
		fmt.Fprintf(w, "verdict: RECOVERED — within the 2x-trigger bound (%s)\n",
			obs.FmtNS(uint64(2*trigDur)))
	} else {
		fmt.Fprintf(w, "post-trigger: collapse lasted %s; 90%% recovery after %s\n",
			obs.FmtNS(uint64(res.CollapsedFor)), obs.FmtNS(uint64(res.RecoveryAfter)))
		fmt.Fprintf(w, "verdict: DEGRADED — neither metastable nor recovered in bound\n")
	}

	kv := replicaOvTotals(res.Replicas)
	fmt.Fprintf(w, "\nper-tier overload counters:\n")
	fmt.Fprintf(w, "  %-9s %9s %9s %9s %14s %17s %14s\n",
		"tier", "admitted", "expired", "rejected", "budget-denied", "breaker-fastfail", "breaker-opens")
	f := res.FrontOv
	fmt.Fprintf(w, "  %-9s %9s %9d %9d %14d %17d %14d\n",
		"frontend", "-", f.Expired, f.Rejected, f.BudgetDenied, f.BreakerFastFail, f.BreakerOpens)
	c := res.Cache.Ov
	fmt.Fprintf(w, "  %-9s %9d %9d %9d %14s %17s %14s\n",
		"cache", c.Admitted, c.Expired, c.Rejected, "-", "-", "-")
	fmt.Fprintf(w, "  %-9s %9d %9d %9d %14s %17s %14s\n",
		"kv", kv.Admitted, kv.Expired, kv.Rejected, "-", "-", "-")

	writeServiceLatency(w, res.Machines, res.Elapsed,
		[]string{"frontend", "frontend.fail", "cache.fetch", "kv.replicate"})
	fmt.Fprintf(w, "\nchecker: %s; split brain: %s\n", res.Check, splitBrainStr(res.SplitBrain))
	writeNemesisBody(w, res.Topo, res.Machines)

	fmt.Fprintf(w, "\n")
	writeClusterCensus(w, res.Machines)
	fmt.Fprintf(w, "\n")
}
