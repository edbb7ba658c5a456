package machine

import "testing"

func TestAccumulatorTotal(t *testing.T) {
	a := NewAccumulator(NewCostModel(ArchDS3100), NewClock())
	a.Charge(Cost{Instrs: 100, Loads: 10, Stores: 5})
	a.Charge(Cost{Instrs: 50})
	if got := a.Total(); got != (Cost{Instrs: 150, Loads: 10, Stores: 5}) {
		t.Fatalf("Total = %v", got)
	}
}

func TestAccumulatorAdvancesClock(t *testing.T) {
	clock := NewClock()
	a := NewAccumulator(NewCostModel(ArchDS3100), clock)
	a.Charge(Cost{Instrs: 1667}) // 100 us on the DS3100
	if got := clock.Now().Micros(); got < 99.9 || got > 100.1 {
		t.Fatalf("clock advanced %v us, want 100", got)
	}
}

func TestMDStateBytesMatchesTable5(t *testing.T) {
	if MDStateBytes != 206 {
		t.Fatalf("MDStateBytes = %d, want 206 (Table 5)", MDStateBytes)
	}
}
