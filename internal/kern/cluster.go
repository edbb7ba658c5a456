package kern

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/dev"
	"repro/internal/machine"
)

// Cluster drives several booted systems (machines) whose clocks are
// independent but whose NICs are cross-wired: a transmit on one machine
// schedules an arrival on the peer's clock at an absolute time.
//
// Drive runs conservative rounds against a safe horizon — the earliest
// instant any cross-machine packet could arrive — letting every machine
// simulate independently up to the horizon, then exchanging the buffered
// packets at a barrier. With parallel=true the rounds run on a bounded
// worker pool; the results are byte-identical either way, because a
// round's execution never lets one machine observe another's state and
// the barrier merge is ordered by machine index, NIC index and emission
// counter, never by goroutine timing.
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

	// CrossCheck, when set before driving, re-derives every round's
	// horizon with the naive full sweep and verifies the barrier flush
	// left nothing buffered, panicking on any divergence from the
	// incremental heap, wire cache, or dirty-flush list. Test-only
	// oracle; costs O(N) per round.
	CrossCheck bool

	// Activity heap: actKey[i] is machine i's cached next-activity time,
	// meaningful while heapPos[i] >= 0; actHeap holds the indices of
	// machines with pending activity ordered by (key, index). dirtyQ and
	// dirtyFlag queue machines whose cached activity must be recomputed
	// at the next round start.
	actKey    []machine.Time
	heapPos   []int
	actHeap   []int
	dirtyQ    []int
	dirtyFlag []bool

	// inRound suppresses dirty-queue appends while machine rounds
	// execute (possibly on worker goroutines): the driver re-marks every
	// active machine at the barrier anyway, and the suppression keeps
	// the queue single-writer. Written only between rounds; the fan-out
	// and barrier channels order it against the workers' reads.
	inRound bool

	// Cached wire lookahead, invalidated by SetLink and by any machine's
	// crash or reboot (polled via TakeTopoChanged at the barrier).
	wire     machine.Duration
	haveWire bool
	wireOK   bool

	// curHorizon is the horizon parallel workers read for the round being
	// fanned out; the jobs channel orders the write against their reads.
	curHorizon machine.Time

	// Scratch buffers, reused across rounds.
	active []int
	scan   []int
}

// NewCluster groups machines for lockstep driving and installs each
// machine's activity watcher. A system belongs to at most one live
// cluster: a later NewCluster over the same systems takes the watchers
// over.
func NewCluster(systems ...*System) *Cluster {
	c := &Cluster{Systems: systems}
	n := len(systems)
	c.actKey = make([]machine.Time, n)
	c.heapPos = make([]int, n)
	c.actHeap = make([]int, 0, n)
	c.dirtyQ = make([]int, 0, n)
	c.dirtyFlag = make([]bool, n)
	c.active = make([]int, 0, n)
	c.scan = make([]int, 0, n)
	for i := range c.heapPos {
		c.heapPos[i] = -1
	}
	for i, s := range systems {
		i := i
		s.K.Clock.SetActivityWatcher(func() { c.markDirty(i) })
		c.markDirty(i)
	}
	return c
}

// markDirty queues machine i for activity recomputation at the next
// round start. Idempotent; suppressed while a round is executing (the
// driver re-marks active machines at the barrier).
func (c *Cluster) markDirty(i int) {
	if c.inRound || c.dirtyFlag[i] {
		return
	}
	c.dirtyFlag[i] = true
	c.dirtyQ = append(c.dirtyQ, i)
}

// maxTime is the horizon used when no wire couples the machines: each is
// free to run to quiescence.
const maxTime = ^machine.Time(0)

// minWire returns the smallest one-way latency of any connected NIC in
// the cluster — the lookahead of the conservative horizon — and false
// when no NIC is connected. This is the full rescan; Drive uses the
// cached copy.
func (c *Cluster) minWire() (machine.Duration, bool) {
	var wire machine.Duration
	have := false
	for _, s := range c.Systems {
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

// minWireCached returns the wire lookahead, rescanning only after an
// invalidation (SetLink, or a machine crash/reboot observed at the
// barrier). Scheduled link-delay windows (the fault grammar's link=…
// rules) add latency at transmit time on top of the NIC's base Wire, so
// they can only push arrivals past the cached lookahead — the horizon
// stays conservative without an invalidation.
func (c *Cluster) minWireCached() (machine.Duration, bool) {
	if !c.wireOK {
		c.wire, c.haveWire = c.minWire()
		c.wireOK = true
	}
	return c.wire, c.haveWire
}

// SetLink joins (or re-times) a NIC pair mid-run and invalidates the
// cached wire lookahead — the explicit hook for link-setting changes.
func (c *Cluster) SetLink(a, b *dev.NIC, wire machine.Duration) {
	dev.Connect(a, b, wire)
	c.wireOK = false
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

// heapLess orders the activity heap by (key, machine index); the index
// tie-break makes the heap a pure function of the cluster state.
func (c *Cluster) heapLess(a, b int) bool {
	return c.actKey[a] < c.actKey[b] || (c.actKey[a] == c.actKey[b] && a < b)
}

func (c *Cluster) heapSwap(x, y int) {
	h := c.actHeap
	h[x], h[y] = h[y], h[x]
	c.heapPos[h[x]] = x
	c.heapPos[h[y]] = y
}

func (c *Cluster) siftUp(pos int) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if !c.heapLess(c.actHeap[pos], c.actHeap[parent]) {
			return
		}
		c.heapSwap(pos, parent)
		pos = parent
	}
}

// siftDown re-settles downward and reports whether anything moved.
func (c *Cluster) siftDown(pos int) bool {
	moved := false
	n := len(c.actHeap)
	for {
		child := 2*pos + 1
		if child >= n {
			return moved
		}
		if r := child + 1; r < n && c.heapLess(c.actHeap[r], c.actHeap[child]) {
			child = r
		}
		if !c.heapLess(c.actHeap[child], c.actHeap[pos]) {
			return moved
		}
		c.heapSwap(pos, child)
		pos = child
		moved = true
	}
}

// heapSet inserts machine i or updates its key, sifting from its current
// position — O(log N), no rebuild.
func (c *Cluster) heapSet(i int, key machine.Time) {
	if pos := c.heapPos[i]; pos >= 0 {
		old := c.actKey[i]
		if key == old {
			return
		}
		c.actKey[i] = key
		if key < old {
			c.siftUp(pos)
		} else {
			c.siftDown(pos)
		}
		return
	}
	c.actKey[i] = key
	c.actHeap = append(c.actHeap, i)
	c.heapPos[i] = len(c.actHeap) - 1
	c.siftUp(len(c.actHeap) - 1)
}

// heapRemove drops machine i from the heap (no pending activity).
func (c *Cluster) heapRemove(i int) {
	pos := c.heapPos[i]
	if pos < 0 {
		return
	}
	last := len(c.actHeap) - 1
	c.heapSwap(pos, last)
	c.actHeap = c.actHeap[:last]
	c.heapPos[i] = -1
	if pos < last {
		if !c.siftDown(pos) {
			c.siftUp(pos)
		}
	}
}

// repairActivity recomputes the cached next-activity of every queued
// dirty machine and fixes its heap position: the lazy round-start repair.
// Cost is O(dirty · log N); a machine that neither ran, received a
// packet, nor had its clock touched since the last round is never
// visited.
func (c *Cluster) repairActivity() {
	for _, i := range c.dirtyQ {
		c.dirtyFlag[i] = false
		at, ok := nextActivity(c.Systems[i])
		if !ok {
			c.heapRemove(i)
			continue
		}
		c.heapSet(i, at)
	}
	c.dirtyQ = c.dirtyQ[:0]
}

// horizonNaive computes the next round's safe horizon with full sweeps
// over every machine and NIC — the reference the incremental path is
// cross-checked against, and the implementation the replay-style tests
// use. Returns false when every machine is quiescent.
func (c *Cluster) horizonNaive() (machine.Time, bool) {
	var earliest machine.Time
	have := false
	for _, s := range c.Systems {
		at, ok := nextActivity(s)
		if ok && (!have || at < earliest) {
			earliest, have = at, true
		}
	}
	if !have {
		return 0, false
	}
	wire, haveWire := c.minWire()
	if !haveWire || earliest > maxTime-wire {
		return maxTime, true
	}
	return earliest + wire, true
}

// horizonFast computes the round horizon from the repaired activity heap
// and the cached wire lookahead: O(dirty · log N), independent of the
// total machine count when most machines are idle.
func (c *Cluster) horizonFast() (machine.Time, bool) {
	c.repairActivity()
	var h machine.Time
	ok := len(c.actHeap) > 0
	if ok {
		earliest := c.actKey[c.actHeap[0]]
		wire, haveWire := c.minWireCached()
		if !haveWire || earliest > maxTime-wire {
			h = maxTime
		} else {
			h = earliest + wire
		}
	}
	if c.CrossCheck {
		nh, nok := c.horizonNaive()
		if nok != ok || nh != h {
			panic(fmt.Sprintf("kern: horizon cross-check failed: heap (%v, %v) vs sweep (%v, %v)",
				h, ok, nh, nok))
		}
	}
	return h, ok
}

// collectActive gathers, in ascending machine index, every machine whose
// cached activity falls before the horizon — the only machines that can
// take a step this round. The heap is traversed with subtree pruning
// (children are never earlier than their parent), so the cost is
// O(active), not O(N).
func (c *Cluster) collectActive(h machine.Time) []int {
	c.active = c.active[:0]
	if len(c.actHeap) == 0 {
		return c.active
	}
	c.scan = append(c.scan[:0], 0)
	for len(c.scan) > 0 {
		pos := c.scan[len(c.scan)-1]
		c.scan = c.scan[:len(c.scan)-1]
		i := c.actHeap[pos]
		if c.actKey[i] >= h {
			continue
		}
		c.active = append(c.active, i)
		if l := 2*pos + 1; l < len(c.actHeap) {
			c.scan = append(c.scan, l)
		}
		if r := 2*pos + 2; r < len(c.actHeap) {
			c.scan = append(c.scan, r)
		}
	}
	sort.Ints(c.active)
	return c.active
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

// flushActive drains only the active machines' dirty NICs — the machines
// that ran this round are the only ones that can have transmitted. Same
// machine/NIC/emission order as the full scan.
func (c *Cluster) flushActive() int {
	delivered := 0
	for _, i := range c.active {
		s := c.Systems[i]
		if s.Dev == nil {
			continue
		}
		delivered += s.Dev.FlushDirtyDeferred()
	}
	return delivered
}

// assertFlushed verifies the dirty-list flush stranded nothing: after a
// barrier no NIC anywhere may hold a buffered delivery. CrossCheck only.
func (c *Cluster) assertFlushed() {
	for i, s := range c.Systems {
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

// round executes one horizon round: repair the heap, pick the horizon,
// run only the active machines (on the worker pool when jobs is
// non-nil), then re-mark them dirty, poll their topology changes, and
// flush their buffered packets. Returns the steps taken and whether the
// cluster still had activity.
func (c *Cluster) round(jobs chan<- int, results <-chan uint64) (uint64, bool) {
	h, ok := c.horizonFast()
	if !ok {
		return 0, false
	}
	active := c.collectActive(h)
	if len(active) == 0 {
		// Every pending activity sits exactly at the (overflow-clamped)
		// horizon; nothing can ever run before it.
		return 0, false
	}
	var steps uint64
	c.inRound = true
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
	c.inRound = false
	for _, i := range active {
		c.markDirty(i)
		if c.Systems[i].TakeTopoChanged() {
			c.wireOK = false
		}
	}
	c.flushActive()
	if c.CrossCheck {
		c.assertFlushed()
	}
	return steps, true
}

// Drive runs the cluster to quiescence with the horizon-round driver and
// returns total dispatcher steps taken. With parallel=true the active
// machines of each round are fanned out over a worker pool bounded by
// GOMAXPROCS — idle machines are never scheduled onto a goroutine at
// all. With parallel=false the same rounds run inline. Output is
// byte-identical across the two modes and any GOMAXPROCS value.
func (c *Cluster) Drive(parallel bool) uint64 {
	c.setDeferred(true)
	defer c.setDeferred(false)
	// The activity cache may be stale if the caller mutated machines
	// since the last drive; recompute everything once, then stay
	// incremental.
	for i := range c.Systems {
		c.markDirty(i)
	}

	var jobs chan int
	var results chan uint64
	if parallel && len(c.Systems) > 1 {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(c.Systems) {
			workers = len(c.Systems)
		}
		jobs = make(chan int, len(c.Systems))
		results = make(chan uint64, len(c.Systems))
		for w := 0; w < workers; w++ {
			go func() {
				for i := range jobs {
					results <- c.Systems[i].K.RunHorizon(c.curHorizon)
				}
			}()
		}
		defer close(jobs)
	}

	var total uint64
	for {
		steps, ok := c.round(jobs, results)
		total += steps
		if !ok {
			return total
		}
	}
}

// HorizonForTest, FlushForTest and SetDeferredForTest expose the naive
// round primitives so driver-level tests can replay Drive's loop by hand
// and measure per-round, per-machine work.
func (c *Cluster) HorizonForTest() (machine.Time, bool) { return c.horizonNaive() }
func (c *Cluster) FlushForTest() int                    { return c.flush() }
func (c *Cluster) SetDeferredForTest(on bool)           { c.setDeferred(on) }

// HorizonFastForTest exposes the incremental horizon (heap repair plus
// wire cache) for the property tests that cross-check it against
// HorizonForTest's full sweep.
func (c *Cluster) HorizonFastForTest() (machine.Time, bool) { return c.horizonFast() }

// RoundForTest runs exactly one sequential horizon round through the
// incremental driver — the unit the scaling benchmark measures. The
// caller is responsible for SetDeferredForTest(true) around a replay.
func (c *Cluster) RoundForTest() (uint64, bool) { return c.round(nil, nil) }
