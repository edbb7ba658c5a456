package kern

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/machine"
)

// Cluster drives several booted systems (machines) whose clocks are
// independent but whose NICs are cross-wired: a transmit on one machine
// schedules an arrival on the peer's clock at an absolute time.
//
// Drive splits the machines into the connected components of the link
// graph and runs each component to quiescence on its own, one after
// another in ascending order of its lowest machine index. No packet can
// cross from one component to another, so a component's rounds never wait
// on another's and its machines stay hot in the host's caches while it
// runs. Within a component Drive runs conservative rounds against a safe
// horizon — the earliest instant a packet from one of its machines could
// arrive — letting each machine simulate independently up to the horizon,
// then exchanging the buffered packets at a barrier. With parallel=true
// the components (or, in a cluster of one component, each round's
// machines) run on a bounded worker pool; the results are byte-identical
// either way, because a machine's execution depends only on its own event
// queue and the barrier merge is ordered by machine index, NIC index and
// emission counter, never by goroutine timing.
//
// Driving cost is O(active machines + log N) per round, not O(N): the
// per-machine next-activity times live in an indexed min-heap repaired
// lazily from a dirty queue (machines mark themselves through their
// clock's activity watcher, the driver marks the machines it ran and the
// flush marks the machines it delivered to), the wire lookahead is cached
// until a link setting, crash or reboot invalidates it, and the barrier
// flush drains only the NICs that buffered packets this round. Machines
// with no activity before the horizon are never woken, scanned, or
// scheduled onto worker goroutines.
type Cluster struct {
	Systems []*System

	// CrossCheck, when set before driving, verifies that every connected
	// NIC's peer lies in the NIC's own component, re-derives every round's
	// horizon with a naive sweep over the round's group, and verifies the
	// barrier flush left nothing buffered there, panicking on any
	// divergence from the partition, incremental heap, wire cache, or
	// dirty-flush list. Test-only oracle; costs O(group size) per round.
	CrossCheck bool

	// kernels maps each machine's kernel to its index: a NIC names its
	// machine only through its device subsystem's kernel, which a warm
	// reboot keeps.
	kernels map[*core.Kernel]int32

	// The machines are partitioned into groups that are driven apart:
	// the link graph's connected components under Drive (byLinks), one
	// group of every machine under the ForTest primitives. group[i] is
	// machine i's group; members lists each group's machines in ascending
	// index, group g's from groups[g].base.
	byLinks bool
	group   []int32
	members []int32
	groups  []group

	// Activity heap, per machine: actKey[i] is machine i's cached
	// next-activity time, meaningful while heapPos[i] >= 0 (its position
	// in its group's heap), and dirty[i] marks it queued for
	// recomputation.
	actKey  []machine.Time
	heapPos []int32
	dirty   []bool

	// Per-group segments: group g owns [base, base+size) of each array.
	// actHeap holds the group's machines with pending activity ordered by
	// (key, index); dirtyQ the machines whose cached activity must be
	// recomputed at the group's next round start; active and scan are a
	// round's scratch. A group never holds more than its size in any of
	// them, so the segments never overlap.
	actHeap []int32
	dirtyQ  []int32
	active  []int32
	scan    []int32

	// curHorizon is the horizon parallel workers read for the round being
	// fanned out; the jobs channel orders the write against their reads.
	curHorizon machine.Time
}

// group is one set of machines driven on its own: its segments of the
// cluster's per-group arrays, its round state and its wire lookahead.
type group struct {
	base, size        int32
	heapLen, dirtyLen int32

	// inRound suppresses dirty-queue appends while the group's machines
	// execute (possibly on worker goroutines): the driver re-marks every
	// active machine at the barrier anyway, and the suppression keeps the
	// queue single-writer. Written only between rounds; the fan-out and
	// barrier channels order it against the workers' reads.
	inRound bool

	// Cached wire lookahead, invalidated by SetLink and by a member's
	// crash or reboot (polled via TakeTopoChanged at the barrier).
	wireOK   bool
	haveWire bool
	wire     machine.Duration
}

// NewCluster groups machines for lockstep driving and installs each
// machine's activity watcher. A system belongs to at most one live
// cluster: a later NewCluster over the same systems takes the watchers
// over.
func NewCluster(systems ...*System) *Cluster {
	n := len(systems)
	ints := make([]int32, 7*n)
	seg := func(k int) []int32 { return ints[k*n : (k+1)*n : (k+1)*n] }
	c := &Cluster{
		Systems: systems,
		group:   seg(0),
		members: seg(1),
		heapPos: seg(2),
		actHeap: seg(3),
		dirtyQ:  seg(4),
		active:  seg(5),
		scan:    seg(6),
		actKey:  make([]machine.Time, n),
		dirty:   make([]bool, n),
		groups:  make([]group, 0, max(n, 1)),
		kernels: make(map[*core.Kernel]int32, n),
	}
	for i, s := range systems {
		c.kernels[s.K] = int32(i)
		s.K.Clock.SetActivityWatcher(func() { c.markDirty(int32(i)) })
	}
	c.partition(false)
	return c
}

// partition regroups the machines — into the link graph's connected
// components when byLinks is set, into one group otherwise — and queues
// every machine for activity recomputation in its new group.
func (c *Cluster) partition(byLinks bool) {
	c.byLinks = byLinks
	c.groups = c.groups[:0]
	if byLinks {
		c.components()
		if c.CrossCheck {
			c.assertClosed()
		}
	} else {
		for i := range c.group {
			c.group[i] = 0
			c.members[i] = int32(i)
		}
		c.groups = append(c.groups, group{size: int32(len(c.Systems))})
	}
	for i := range c.Systems {
		c.heapPos[i] = -1
		c.dirty[i] = false
	}
	for i := range c.Systems {
		c.markDirty(int32(i))
	}
}

// components partitions the machines into the connected components of
// the link graph, two machines being linked when a NIC of one is
// connected to a NIC of the other, in one union-find pass by machine
// index. Components are numbered, and their members listed, in ascending
// machine order.
func (c *Cluster) components() {
	// members serves as the union-find forest until the members are
	// listed. The lower root wins every union, so a root is its
	// component's lowest machine.
	parent := c.members
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i, s := range c.Systems {
		if s.Dev == nil {
			continue
		}
		for _, n := range s.Dev.NICs() {
			j, ok := c.machineOf(n.Peer())
			if !ok {
				continue
			}
			a, b := find(int32(i)), find(j)
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	for i := range c.group {
		if r := find(int32(i)); r == int32(i) {
			c.group[i] = int32(len(c.groups))
			c.groups = append(c.groups, group{})
		} else {
			c.group[i] = c.group[r]
		}
		c.groups[c.group[i]].size++
	}
	// List each component's members from its base on; scan holds each
	// component's next free slot meanwhile.
	var base int32
	for g := range c.groups {
		c.groups[g].base = base
		c.scan[g] = base
		base += c.groups[g].size
	}
	for i, g := range c.group {
		c.members[c.scan[g]] = int32(i)
		c.scan[g]++
	}
}

// machineOf returns the index of the machine NIC n belongs to, and false
// for no NIC or a NIC outside the cluster.
func (c *Cluster) machineOf(n *dev.NIC) (int32, bool) {
	if n == nil {
		return 0, false
	}
	i, ok := c.kernels[n.Sub.K]
	return i, ok
}

// assertClosed verifies that the partition is closed: every connected
// NIC's peer is a machine of the NIC's own group, so no packet can cross
// from one group to another. CrossCheck only.
func (c *Cluster) assertClosed() {
	for i, s := range c.Systems {
		if s.Dev == nil {
			continue
		}
		for _, n := range s.Dev.NICs() {
			if n.Peer() == nil {
				continue
			}
			j, ok := c.machineOf(n.Peer())
			if !ok || c.group[j] != c.group[i] {
				panic(fmt.Sprintf("kern: partition cross-check failed: machine %d NIC %q (component %d) reaches a peer outside its component",
					i, n.Name, c.group[i]))
			}
		}
	}
}

// markDirty queues machine i for activity recomputation at its group's
// next round start. Idempotent; suppressed while the group's round is
// executing (the driver re-marks active machines at the barrier).
func (c *Cluster) markDirty(i int32) {
	g := &c.groups[c.group[i]]
	if g.inRound || c.dirty[i] {
		return
	}
	c.dirty[i] = true
	c.dirtyQ[g.base+g.dirtyLen] = i
	g.dirtyLen++
}

// maxTime is the horizon used when no wire couples a group's machines:
// each is free to run to quiescence.
const maxTime = ^machine.Time(0)

// minWire returns the smallest one-way latency of any connected NIC of
// g's machines — the lookahead of the group's conservative horizon — and
// false when none is connected. This is the full rescan; rounds use the
// cached copy.
func (c *Cluster) minWire(g *group) (machine.Duration, bool) {
	var wire machine.Duration
	have := false
	for _, i := range c.members[g.base : g.base+g.size] {
		s := c.Systems[i]
		if s.Dev == nil {
			continue
		}
		for _, n := range s.Dev.NICs() {
			if n.Peer() == nil {
				continue
			}
			if !have || n.Wire < wire {
				wire, have = n.Wire, true
			}
		}
	}
	return wire, have
}

// minWireCached returns g's wire lookahead, rescanning only after an
// invalidation (SetLink, or a member's crash/reboot observed at the
// barrier). Scheduled link-delay windows (the fault grammar's link=…
// rules) add latency at transmit time on top of the NIC's base Wire, so
// they can only push arrivals past the cached lookahead — the horizon
// stays conservative without an invalidation.
func (c *Cluster) minWireCached(g *group) (machine.Duration, bool) {
	if !g.wireOK {
		g.wire, g.haveWire = c.minWire(g)
		g.wireOK = true
	}
	return g.wire, g.haveWire
}

// SetLink joins (or re-times) a NIC pair between drives and invalidates
// the cached wire lookaheads — the explicit hook for link-setting
// changes. The next Drive recomputes the components.
func (c *Cluster) SetLink(a, b *dev.NIC, wire machine.Duration) {
	dev.Connect(a, b, wire)
	for g := range c.groups {
		c.groups[g].wireOK = false
	}
}

// nextActivity returns the earliest simulated time at which the machine
// could next execute anything (and therefore transmit): its own clock
// when it has work at the present, otherwise its next pending event. A
// machine with only background events reports false: background timers
// alone never keep a cluster running.
func nextActivity(s *System) (machine.Time, bool) {
	k := s.K
	if k.HasPresentWork() {
		return k.Clock.Now(), true
	}
	if !k.Clock.HasForeground() {
		return 0, false
	}
	return k.Clock.NextEventTime()
}

// horizonAt is the safe horizon of a group whose earliest activity is at
// earliest: one wire lookahead later, or never when no wire couples its
// machines (or the sum would overflow).
func horizonAt(earliest machine.Time, wire machine.Duration, haveWire bool) machine.Time {
	if !haveWire || earliest > maxTime-wire {
		return maxTime
	}
	return earliest + wire
}

// heapOf returns g's live activity heap.
func (c *Cluster) heapOf(g *group) []int32 { return c.actHeap[g.base : g.base+g.heapLen] }

// heapLess orders an activity heap by (key, machine index); the index
// tie-break makes the heap a pure function of the cluster state.
func (c *Cluster) heapLess(a, b int32) bool {
	return c.actKey[a] < c.actKey[b] || (c.actKey[a] == c.actKey[b] && a < b)
}

func (c *Cluster) heapSwap(h []int32, x, y int32) {
	h[x], h[y] = h[y], h[x]
	c.heapPos[h[x]] = x
	c.heapPos[h[y]] = y
}

func (c *Cluster) siftUp(h []int32, pos int32) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if !c.heapLess(h[pos], h[parent]) {
			return
		}
		c.heapSwap(h, pos, parent)
		pos = parent
	}
}

// siftDown re-settles downward and reports whether anything moved.
func (c *Cluster) siftDown(h []int32, pos int32) bool {
	moved := false
	n := int32(len(h))
	for {
		child := 2*pos + 1
		if child >= n {
			return moved
		}
		if r := child + 1; r < n && c.heapLess(h[r], h[child]) {
			child = r
		}
		if !c.heapLess(h[child], h[pos]) {
			return moved
		}
		c.heapSwap(h, pos, child)
		pos = child
		moved = true
	}
}

// heapSet inserts machine i into g's heap or updates its key, sifting
// from its current position — O(log N), no rebuild.
func (c *Cluster) heapSet(g *group, i int32, key machine.Time) {
	if pos := c.heapPos[i]; pos >= 0 {
		old := c.actKey[i]
		if key == old {
			return
		}
		c.actKey[i] = key
		if key < old {
			c.siftUp(c.heapOf(g), pos)
		} else {
			c.siftDown(c.heapOf(g), pos)
		}
		return
	}
	c.actKey[i] = key
	c.actHeap[g.base+g.heapLen] = i
	c.heapPos[i] = g.heapLen
	g.heapLen++
	c.siftUp(c.heapOf(g), g.heapLen-1)
}

// heapRemove drops machine i from g's heap (no pending activity).
func (c *Cluster) heapRemove(g *group, i int32) {
	pos := c.heapPos[i]
	if pos < 0 {
		return
	}
	last := g.heapLen - 1
	c.heapSwap(c.heapOf(g), pos, last)
	g.heapLen = last
	c.heapPos[i] = -1
	if pos < last {
		h := c.heapOf(g)
		if !c.siftDown(h, pos) {
			c.siftUp(h, pos)
		}
	}
}

// repairActivity recomputes the cached next-activity of every machine on
// g's dirty queue and fixes its heap position: the lazy round-start
// repair. Cost is O(dirty · log N); a machine that neither ran, received
// a packet, nor had its clock touched since the last round is never
// visited.
func (c *Cluster) repairActivity(g *group) {
	for _, i := range c.dirtyQ[g.base : g.base+g.dirtyLen] {
		c.dirty[i] = false
		at, ok := nextActivity(c.Systems[i])
		if !ok {
			c.heapRemove(g, i)
			continue
		}
		c.heapSet(g, i, at)
	}
	g.dirtyLen = 0
}

// horizonNaive computes g's next safe horizon with full sweeps over its
// machines and their NICs — the reference the incremental path is
// cross-checked against, and the implementation the replay-style tests
// use. Returns false when every machine of g is quiescent.
func (c *Cluster) horizonNaive(g *group) (machine.Time, bool) {
	var earliest machine.Time
	have := false
	for _, i := range c.members[g.base : g.base+g.size] {
		at, ok := nextActivity(c.Systems[i])
		if ok && (!have || at < earliest) {
			earliest, have = at, true
		}
	}
	if !have {
		return 0, false
	}
	wire, haveWire := c.minWire(g)
	return horizonAt(earliest, wire, haveWire), true
}

// horizonFast computes g's round horizon from its repaired activity heap
// and its cached wire lookahead: O(dirty · log N), independent of the
// group's size when most of its machines are idle.
func (c *Cluster) horizonFast(g *group) (machine.Time, bool) {
	c.repairActivity(g)
	var h machine.Time
	ok := g.heapLen > 0
	if ok {
		wire, haveWire := c.minWireCached(g)
		h = horizonAt(c.actKey[c.actHeap[g.base]], wire, haveWire)
	}
	if c.CrossCheck {
		nh, nok := c.horizonNaive(g)
		if nok != ok || nh != h {
			panic(fmt.Sprintf("kern: horizon cross-check failed: heap (%v, %v) vs sweep (%v, %v)",
				h, ok, nh, nok))
		}
	}
	return h, ok
}

// collectActive gathers, in ascending machine index, every machine of g
// whose cached activity falls before the horizon — the only machines that
// can take a step this round. The heap is traversed with subtree pruning
// (children are never earlier than their parent), so the cost is
// O(active), not O(N).
func (c *Cluster) collectActive(g *group, h machine.Time) []int32 {
	end := g.base + g.size
	active := c.active[g.base:g.base:end]
	heap := c.heapOf(g)
	if len(heap) == 0 {
		return active
	}
	scan := append(c.scan[g.base:g.base:end], 0)
	for len(scan) > 0 {
		pos := scan[len(scan)-1]
		scan = scan[:len(scan)-1]
		i := heap[pos]
		if c.actKey[i] >= h {
			continue
		}
		active = append(active, i)
		if l := 2*pos + 1; l < int32(len(heap)) {
			scan = append(scan, l)
		}
		if r := 2*pos + 2; r < int32(len(heap)) {
			scan = append(scan, r)
		}
	}
	slices.Sort(active)
	return active
}

// flush delivers every packet buffered during a round with the reference
// full scan over all machines and NICs, in machine-index, NIC-index,
// emission order. The arrival events' heap positions are fixed by their
// ScheduleRemote keys, so this order is a convention, not a correctness
// requirement. Single-threaded.
func (c *Cluster) flush() int {
	delivered := 0
	for _, s := range c.Systems {
		if s.Dev == nil {
			continue
		}
		delivered += s.Dev.FlushAllDeferred()
	}
	return delivered
}

// flushActive drains only the round's active machines' dirty NICs — the
// machines that ran this round are the only ones that can have
// transmitted. Same machine/NIC/emission order as the full scan.
func (c *Cluster) flushActive(active []int32) {
	for _, i := range active {
		if s := c.Systems[i]; s.Dev != nil {
			s.Dev.FlushDirtyDeferred()
		}
	}
}

// assertFlushed verifies the dirty-list flush stranded nothing: after a
// barrier no NIC of g's machines may hold a buffered delivery.
// CrossCheck only.
func (c *Cluster) assertFlushed(g *group) {
	for _, i := range c.members[g.base : g.base+g.size] {
		s := c.Systems[i]
		if s.Dev == nil {
			continue
		}
		for _, n := range s.Dev.NICs() {
			if n.PendingDeferred() != 0 {
				panic(fmt.Sprintf("kern: flush cross-check failed: machine %d NIC %q still buffers %d deliveries",
					i, n.Name, n.PendingDeferred()))
			}
		}
	}
}

// setDeferred switches every NIC between immediate and barrier delivery.
func (c *Cluster) setDeferred(on bool) {
	for _, s := range c.Systems {
		if s.Dev == nil {
			continue
		}
		for _, n := range s.Dev.NICs() {
			n.SetDeferred(on)
		}
	}
}

// round executes one horizon round of group g: repair its heap, pick its
// horizon, run only its active machines (on the worker pool when jobs is
// non-nil), then re-mark them dirty, poll their topology changes, and
// flush their buffered packets. Returns the steps taken and whether the
// group still had activity.
func (c *Cluster) round(g *group, jobs chan<- int32, results <-chan uint64) (uint64, bool) {
	h, ok := c.horizonFast(g)
	if !ok {
		return 0, false
	}
	active := c.collectActive(g, h)
	if len(active) == 0 {
		// Every pending activity sits exactly at the (overflow-clamped)
		// horizon; nothing can ever run before it.
		return 0, false
	}
	var steps uint64
	g.inRound = true
	if jobs != nil && len(active) > 1 {
		c.curHorizon = h
		for _, i := range active {
			jobs <- i
		}
		for range active {
			steps += <-results
		}
	} else {
		for _, i := range active {
			steps += c.Systems[i].K.RunHorizon(h)
		}
	}
	g.inRound = false
	for _, i := range active {
		c.markDirty(i)
		if c.Systems[i].TakeTopoChanged() {
			g.wireOK = false
		}
	}
	c.flushActive(active)
	if c.CrossCheck {
		c.assertFlushed(g)
	}
	return steps, true
}

// drain runs g's rounds until its machines are quiescent and returns the
// steps taken.
func (c *Cluster) drain(g *group, jobs chan<- int32, results <-chan uint64) uint64 {
	var total uint64
	for {
		steps, ok := c.round(g, jobs, results)
		total += steps
		if !ok {
			return total
		}
	}
}

// Drive runs the cluster to quiescence, one connected component after
// another, and returns total dispatcher steps taken. With parallel=true
// a worker pool bounded by GOMAXPROCS takes whole components as its jobs,
// each running its component's rounds inline; a cluster of one component
// fans each round's active machines out over the pool instead. Idle
// machines are never scheduled onto a goroutine at all. With
// parallel=false the same rounds run inline. Output is byte-identical
// across the two modes and any GOMAXPROCS value.
func (c *Cluster) Drive(parallel bool) uint64 {
	// Links may have changed since the last drive, and the activity
	// cache may be stale if the caller mutated machines; recompute both
	// once, then stay incremental.
	c.partition(true)
	c.setDeferred(true)
	defer c.setDeferred(false)
	workers := runtime.GOMAXPROCS(0)
	switch {
	case parallel && len(c.groups) > 1:
		return c.driveComponents(min(workers, len(c.groups)))
	case parallel && len(c.Systems) > 1:
		return c.driveMachines(min(workers, len(c.Systems)))
	}
	var total uint64
	for g := range c.groups {
		total += c.drain(&c.groups[g], nil, nil)
	}
	return total
}

// driveComponents drains every component on a pool of workers, each
// running the components it takes inline. Components share no machine,
// NIC or driver state, so the jobs need no coordination beyond the pool.
func (c *Cluster) driveComponents(workers int) uint64 {
	// Both channels hold one entry per component.
	jobs := make(chan int, len(c.groups))
	results := make(chan uint64, len(c.groups))
	for range workers {
		go func() {
			for g := range jobs {
				results <- c.drain(&c.groups[g], nil, nil)
			}
		}()
	}
	for g := range c.groups {
		jobs <- g
	}
	close(jobs)
	var total uint64
	for range c.groups {
		total += <-results
	}
	return total
}

// driveMachines drains a cluster of one component, fanning each round's
// active machines out over a pool of workers.
func (c *Cluster) driveMachines(workers int) uint64 {
	// Both channels hold one entry per machine: a round sends at most
	// one job per machine before it collects the results.
	jobs := make(chan int32, len(c.Systems))
	results := make(chan uint64, len(c.Systems))
	for range workers {
		go func() {
			for i := range jobs {
				results <- c.Systems[i].K.RunHorizon(c.curHorizon)
			}
		}()
	}
	defer close(jobs)
	return c.drain(&c.groups[0], jobs, results)
}

// whole regroups every machine into one group — the layout the ForTest
// primitives drive, and the whole-cluster rounds Drive's components must
// agree with — unless it already is, and returns that group.
func (c *Cluster) whole() *group {
	if c.byLinks {
		c.partition(false)
	}
	return &c.groups[0]
}

// HorizonForTest, FlushForTest and SetDeferredForTest expose the naive
// whole-cluster round primitives so driver-level tests can replay the
// rounds by hand and measure per-round, per-machine work.
func (c *Cluster) HorizonForTest() (machine.Time, bool) { return c.horizonNaive(c.whole()) }
func (c *Cluster) FlushForTest() int                    { c.whole(); return c.flush() }
func (c *Cluster) SetDeferredForTest(on bool)           { c.whole(); c.setDeferred(on) }

// HorizonFastForTest exposes the incremental whole-cluster horizon (heap
// repair plus wire cache) for the property tests that cross-check it
// against HorizonForTest's full sweep.
func (c *Cluster) HorizonFastForTest() (machine.Time, bool) { return c.horizonFast(c.whole()) }

// RoundForTest runs exactly one sequential horizon round over the whole
// cluster through the engine Drive runs each component with — the unit
// the scaling benchmark measures, and the oracle Drive's components are
// checked against. The caller is responsible for SetDeferredForTest(true)
// around a replay.
func (c *Cluster) RoundForTest() (uint64, bool) { return c.round(c.whole(), nil, nil) }

// ComponentsForTest partitions the cluster as Drive does and returns
// each component's machines, components in ascending order of their
// lowest machine.
func (c *Cluster) ComponentsForTest() [][]int {
	c.partition(true)
	out := make([][]int, len(c.groups))
	for g, gr := range c.groups {
		for _, i := range c.members[gr.base : gr.base+gr.size] {
			out[g] = append(out[g], int(i))
		}
	}
	return out
}
