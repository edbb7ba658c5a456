package stats

import (
	"math"
	"testing"
)

func TestRecordBlockTotals(t *testing.T) {
	var k Kernel
	k.RecordBlock(BlockReceive, true)
	k.RecordBlock(BlockReceive, true)
	k.RecordBlock(BlockPreempt, true)
	k.RecordBlock(BlockKernelFault, false)
	if k.TotalBlocks() != 4 {
		t.Fatalf("TotalBlocks = %d", k.TotalBlocks())
	}
	if k.TotalDiscards() != 3 {
		t.Fatalf("TotalDiscards = %d", k.TotalDiscards())
	}
	if k.TotalNoDiscards() != 1 {
		t.Fatalf("TotalNoDiscards = %d", k.TotalNoDiscards())
	}
	if k.BlocksWithDiscard[BlockReceive] != 2 {
		t.Fatalf("receive discards = %d", k.BlocksWithDiscard[BlockReceive])
	}
}

func TestPercent(t *testing.T) {
	// Zero denominators must yield 0, never NaN or Inf — the report
	// printers feed Percent straight into %.1f and an empty run (0 blocks)
	// must still render.
	if got := Percent(1, 0); got != 0 {
		t.Fatalf("Percent(1, 0) = %v, want 0", got)
	}
	if got := Percent(0, 0); got != 0 {
		t.Fatalf("Percent(0, 0) = %v, want 0", got)
	}
	for _, c := range [][2]uint64{{0, 0}, {1, 0}, {^uint64(0), 0}} {
		if got := Percent(c[0], c[1]); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Percent(%d, %d) = %v, want finite", c[0], c[1], got)
		}
	}
	if got := Percent(25, 100); got != 25 {
		t.Fatalf("Percent = %v", got)
	}
	if got := Percent(1, 3); got < 33.3 || got > 33.4 {
		t.Fatalf("Percent(1,3) = %v", got)
	}
}

func TestBlockReasonStrings(t *testing.T) {
	cases := map[BlockReason]string{
		BlockReceive:      "message receive",
		BlockException:    "exception",
		BlockPageFault:    "page fault",
		BlockThreadSwitch: "thread switch",
		BlockPreempt:      "preempt",
		BlockInternal:     "internal threads",
		BlockKernelFault:  "kernel fault",
		BlockKernelAlloc:  "kernel alloc",
		BlockLock:         "lock wait",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if BlockReason(99).String() != "BlockReason(99)" {
		t.Error("unknown reason string")
	}
}

func TestDiscardReasonsMatchPaperRows(t *testing.T) {
	// The paper's six Table 1 discard rows, plus the device-I/O row the
	// device subsystem extension adds (device_read/device_write block with
	// a continuation exactly like a receive).
	want := []BlockReason{
		BlockReceive, BlockException, BlockPageFault,
		BlockThreadSwitch, BlockPreempt, BlockInternal,
		BlockDeviceIO,
	}
	if len(DiscardReasons) != len(want) {
		t.Fatalf("DiscardReasons has %d rows", len(DiscardReasons))
	}
	for i, r := range want {
		if DiscardReasons[i] != r {
			t.Fatalf("row %d = %v, want %v", i, DiscardReasons[i], r)
		}
	}
}
