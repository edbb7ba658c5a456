package fault_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
)

// FuzzParseSpec checks the fault grammar on arbitrary input: ParseSpec
// never panics, and a spec it accepts holds only probabilities in
// [0, 1], gray and burst factors in (0, MaxFactor] that also multiply to
// at most MaxFactor where windows overlap, and non-negative durations.
// The corpus starts from the table tests.
//
//	go test -run '^$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/fault
func FuzzParseSpec(f *testing.F) {
	f.Add("devfail=0.05,devslow=0.1:2ms,drop=0.1,dup=0.02,delay=0.05:1ms")
	f.Add("crash=1@40ms:reboot+40ms,crash=2@160ms")
	for _, tc := range goodTopologySpecs {
		f.Add(tc.in)
	}
	for _, in := range badSpecs {
		f.Add(in)
	}
	for _, in := range badTopologySpecs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := fault.ParseSpec(in)
		if err != nil {
			return
		}
		for _, p := range []float64{s.DeviceFailProb, s.DeviceSlowProb, s.DropProb, s.DupProb, s.DelayProb} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) accepted probability %v", in, p)
			}
		}
		durs := []machine.Duration{s.DeviceSlowExtra, s.DelayExtra}
		for _, c := range s.Crashes {
			durs = append(durs, c.At, c.RebootAfter)
		}
		for _, p := range s.Partitions {
			durs = append(durs, p.At, p.Dur)
		}
		for _, l := range s.Links {
			durs = append(durs, l.Extra, l.At, l.Dur)
		}
		var factors []float64
		for _, g := range s.Grays {
			factors = append(factors, g.Factor)
			durs = append(durs, g.At, g.Dur)
		}
		for _, b := range s.Bursts {
			factors = append(factors, b.Factor)
			durs = append(durs, b.At, b.Dur)
		}
		for _, x := range factors {
			if !(x > 0 && x <= fault.MaxFactor) {
				t.Fatalf("ParseSpec(%q) accepted factor %v", in, x)
			}
		}
		// A window's product is constant between edges; look inside
		// each window and on both of its edges.
		topo := fault.NewTopology(s)
		for _, g := range s.Grays {
			for _, at := range []machine.Time{g.At, g.At + g.Dur - 1, g.At + g.Dur} {
				if f := topo.Slowdown(g.Machine, at); !(f <= fault.MaxFactor) {
					t.Fatalf("ParseSpec(%q) accepted gray windows multiplying to %v at %d", in, f, at)
				}
			}
		}
		for _, b := range s.Bursts {
			for _, at := range []machine.Time{b.At, b.At + b.Dur - 1, b.At + b.Dur} {
				if f := topo.BurstAt(at); !(f <= fault.MaxFactor) {
					t.Fatalf("ParseSpec(%q) accepted burst windows multiplying to %v at %d", in, f, at)
				}
			}
		}
		for _, d := range durs {
			if d < 0 {
				t.Fatalf("ParseSpec(%q) accepted negative duration %d", in, d)
			}
		}
	})
}
