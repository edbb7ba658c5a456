package kern_test

// Tests for the O(active)-cost cluster driver: the indexed activity heap
// against the naive full-sweep horizon, the cached wire lookahead
// against link changes, and Drive's partition into connected components.

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/workload"
)

// bootCluster builds n machines with consecutive pairs wired at the
// given latencies (wires[i] joins machines 2i and 2i+1; machines beyond
// the last wire stay unconnected).
func bootCluster(t *testing.T, n int, wires ...machine.Duration) (*kern.Cluster, []*kern.System) {
	t.Helper()
	cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100}
	systems := make([]*kern.System, n)
	for i := range systems {
		systems[i] = kern.New(cfg)
	}
	for i, w := range wires {
		if 2*i+1 < n {
			dev.Connect(systems[2*i].Net.NIC, systems[2*i+1].Net.NIC, w)
		}
	}
	return kern.NewCluster(systems...), systems
}

// TestActivityHeapMatchesSweep drives a random mix of schedules,
// cancels, background timers, link re-timings and horizon rounds, and
// after every operation checks the incremental horizon (heap repair +
// wire cache) against the naive full sweep. The watchers are the only
// thing keeping the heap honest here — no Drive() ever marks all
// machines dirty.
func TestActivityHeapMatchesSweep(t *testing.T) {
	cluster, systems := bootCluster(t, 6,
		machine.Duration(1_000_000), machine.Duration(2_000_000))
	cluster.SetDeferredForTest(true)
	defer cluster.SetDeferredForTest(false)

	// owned is a foreground timer's one holder: its action clears ev, so
	// a handle whose event fired (and went back on the free list) is
	// never cancelled.
	type owned struct {
		clock *machine.Clock
		ev    *machine.Event
	}
	fired := func(arg any) { arg.(*owned).ev = nil }
	idle := func(any) {}
	rng := workload.NewRNG(7)
	var live []*owned
	check := func(step int) {
		t.Helper()
		hf, okf := cluster.HorizonFastForTest()
		hn, okn := cluster.HorizonForTest()
		if hf != hn || okf != okn {
			t.Fatalf("step %d: fast horizon (%v, %v) != naive sweep (%v, %v)",
				step, hf, okf, hn, okn)
		}
	}

	check(-1)
	for i := 0; i < 600; i++ {
		s := systems[rng.Intn(len(systems))]
		switch rng.Intn(6) {
		case 0, 1:
			at := s.K.Clock.Now() + machine.Time(1+rng.Intn(5_000_000))
			o := &owned{clock: s.K.Clock}
			o.ev = s.K.Clock.Schedule(at, fired, o)
			live = append(live, o)
		case 2:
			s.K.Clock.ScheduleBackground(s.K.Clock.Now()+machine.Duration(1+rng.Intn(5_000_000)), idle, nil)
		case 3:
			if len(live) > 0 {
				j := rng.Intn(len(live))
				if o := live[j]; o.ev != nil {
					o.clock.Cancel(o.ev)
					o.ev = nil
				}
				live = append(live[:j], live[j+1:]...)
			}
		case 4:
			// Re-time a link: the wire cache must be invalidated, not
			// merely conservative.
			w := machine.Duration(100_000 * (1 + rng.Intn(30)))
			cluster.SetLink(systems[0].Net.NIC, systems[1].Net.NIC, w)
		default:
			cluster.RoundForTest()
		}
		check(i)
	}
	// Drain to quiescence: the heap must empty exactly when the sweep
	// reports no activity.
	for {
		if _, ok := cluster.RoundForTest(); !ok {
			break
		}
	}
	check(601)
	if _, ok := cluster.HorizonForTest(); ok {
		t.Fatalf("cluster not quiescent after drain")
	}
}

// TestSetLinkMovesHorizon pins the cache-invalidation contract: lowering
// the only wire latency mid-run must lower the next horizon, raising it
// must raise it, and both must keep matching the naive sweep.
func TestSetLinkMovesHorizon(t *testing.T) {
	cluster, systems := bootCluster(t, 2, machine.Duration(2_000_000))
	a, b := systems[0], systems[1]

	h0, ok := cluster.HorizonFastForTest()
	if !ok {
		t.Fatalf("fresh cluster reports no activity")
	}
	cluster.SetLink(a.Net.NIC, b.Net.NIC, machine.Duration(500_000))
	h1, ok := cluster.HorizonFastForTest()
	if !ok || h1 >= h0 {
		t.Fatalf("lowering wire 2ms->0.5ms: horizon %v -> %v, want a decrease", h0, h1)
	}
	cluster.SetLink(a.Net.NIC, b.Net.NIC, machine.Duration(4_000_000))
	h2, ok := cluster.HorizonFastForTest()
	if !ok || h2 <= h1 {
		t.Fatalf("raising wire 0.5ms->4ms: horizon %v -> %v, want an increase", h1, h2)
	}
	hn, _ := cluster.HorizonForTest()
	if h2 != hn {
		t.Fatalf("cached horizon %v != naive sweep %v after SetLink", h2, hn)
	}
}

// TestCrashRebootRefreshesWireCache checks the barrier's TakeTopoChanged
// polling: a crash and warm reboot inside a drive must leave the cached
// lookahead consistent with the naive sweep afterwards.
func TestCrashRebootRefreshesWireCache(t *testing.T) {
	cluster, systems := bootCluster(t, 4,
		machine.Duration(1_000_000), machine.Duration(3_000_000))
	cluster.CrossCheck = true
	systems[1].ScheduleCrash(machine.Time(2_000_000), machine.Duration(2_000_000))
	cluster.Drive(false) // CrossCheck panics on any cache divergence
	if systems[1].Reboots != 1 {
		t.Fatalf("machine 1 reboots = %d, want 1", systems[1].Reboots)
	}
	hf, okf := cluster.HorizonFastForTest()
	hn, okn := cluster.HorizonForTest()
	if hf != hn || okf != okn {
		t.Fatalf("post-reboot horizon (%v, %v) != naive sweep (%v, %v)", hf, okf, hn, okn)
	}
}

// TestComponents checks Drive's partition of the machines into the
// connected components of the link graph: each component lists its
// machines in ascending order, the components come in ascending order
// of their lowest machine, and the partition is closed — every
// connected NIC's peer lies in the NIC's own component (CrossCheck
// asserts it too, and each cluster is then driven to quiescence with
// CrossCheck armed).
func TestComponents(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		nodev []int // machines booted without a device subsystem
		links [][2]int
		want  [][]int
	}{
		{name: "pairs", n: 6, links: [][2]int{{0, 1}, {2, 3}, {4, 5}},
			want: [][]int{{0, 1}, {2, 3}, {4, 5}}},
		{name: "chain", n: 5, links: [][2]int{{3, 4}, {0, 1}, {2, 3}, {1, 2}},
			want: [][]int{{0, 1, 2, 3, 4}}},
		{name: "kv", n: 4, links: [][2]int{{0, 1}, {0, 2}, {3, 1}, {3, 2}, {1, 2}},
			want: [][]int{{0, 1, 2, 3}}},
		{name: "isolated", n: 6, links: [][2]int{{4, 1}, {5, 2}},
			want: [][]int{{0}, {1, 4}, {2, 5}, {3}}},
		{name: "no device subsystem", n: 4, nodev: []int{1}, links: [][2]int{{3, 0}},
			want: [][]int{{0, 3}, {1}, {2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			systems := make([]*kern.System, tc.n)
			for i := range systems {
				cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100}
				cfg.DisableDaemons = slices.Contains(tc.nodev, i)
				systems[i] = kern.New(cfg)
			}
			used := make([]int, tc.n)
			nic := func(i int) *dev.NIC {
				if used[i] == len(systems[i].Links) {
					systems[i].AddLink()
				}
				used[i]++
				return systems[i].Links[used[i]-1].NIC
			}
			for _, l := range tc.links {
				dev.Connect(nic(l[0]), nic(l[1]), 0)
			}
			cluster := kern.NewCluster(systems...)
			cluster.CrossCheck = true
			got := cluster.ComponentsForTest()
			if !slices.EqualFunc(got, tc.want, slices.Equal[[]int]) {
				t.Fatalf("components %v, want %v", got, tc.want)
			}
			comp := make(map[*core.Kernel]int)
			for c, ms := range got {
				for _, i := range ms {
					comp[systems[i].K] = c
				}
			}
			for i, s := range systems {
				if s.Dev == nil {
					continue
				}
				for _, n := range s.Dev.NICs() {
					if p := n.Peer(); p != nil && comp[p.Sub.K] != comp[s.K] {
						t.Fatalf("machine %d NIC %s reaches component %d from component %d",
							i, n.Name, comp[p.Sub.K], comp[s.K])
					}
				}
			}
			cluster.Drive(false)
			if _, ok := cluster.HorizonForTest(); ok {
				t.Fatalf("cluster not quiescent after Drive")
			}
		})
	}
}
