package workload

import (
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
)

// TestHorizonRoundBalance replays Drive's horizon rounds by hand on the
// 4-machine benchmark workload and checks the property the parallel
// speedup depends on: work is spread across the machines, not
// concentrated on one. If a scheduling or horizon regression serialized
// the rounds (one machine doing nearly all the steps), the parallel
// driver would silently stop scaling; this test catches that shape
// change even on a single-core host where wall-clock can't.
func TestHorizonRoundBalance(t *testing.T) {
	spec := DefaultNetRPC()
	spec.Pairs = 2
	spec.Clients = 32
	spec.DiskReads = 0
	booted := boot(netRPCCluster(kern.MK40, machine.ArchDS3100, spec))
	installPairs(booted.machines, spec)
	c := kern.NewCluster(booted.machines...)
	c.SetDeferredForTest(true)
	defer c.SetDeferredForTest(false)

	var rounds, busyRounds int
	var totalSteps, maxShareSum float64
	for {
		h, ok := c.HorizonForTest()
		if !ok {
			break
		}
		var rmax, rtot uint64
		for _, s := range c.Systems {
			n := s.K.RunHorizon(h)
			rtot += n
			if n > rmax {
				rmax = n
			}
		}
		c.FlushForTest()
		rounds++
		totalSteps += float64(rtot)
		if rtot > 0 {
			busyRounds++
			maxShareSum += float64(rmax) / float64(rtot)
		}
	}
	if rounds == 0 || busyRounds == 0 {
		t.Fatal("cluster quiesced without doing any work")
	}
	avgSteps := totalSteps / float64(rounds)
	avgMaxShare := maxShareSum / float64(busyRounds)
	t.Logf("rounds=%d avg-steps/round=%.1f avg-max-machine-share=%.2f", rounds, avgSteps, avgMaxShare)

	// With 4 machines a perfectly balanced round has max share 0.25; a
	// serialized one has 1.0. The workload sits near 0.3 — fail well
	// before the parallel driver's headroom is gone.
	if avgMaxShare > 0.5 {
		t.Errorf("rounds too unbalanced for parallel speedup: avg max-machine share %.2f > 0.5", avgMaxShare)
	}
	// Rounds must carry real work, or barrier overhead dominates.
	if avgSteps < 8 {
		t.Errorf("rounds too thin: %.1f steps/round", avgSteps)
	}
}
