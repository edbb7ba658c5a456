package machine

import "testing"

func TestContextSaveArgs(t *testing.T) {
	var c Context
	c.SaveArgs(1, 2, 3, 4, 5, 6) // extras dropped, like real trap frames
	if c.Args != [4]uint64{1, 2, 3, 4} {
		t.Fatalf("Args = %v", c.Args)
	}
	c.SaveArgs(9)
	if c.Args != [4]uint64{9, 0, 0, 0} {
		t.Fatalf("Args after re-save = %v", c.Args)
	}
}

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
