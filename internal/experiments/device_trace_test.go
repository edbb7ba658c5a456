package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func TestDeviceReadTraceShape(t *testing.T) {
	tr := experiments.DeviceReadTrace()
	// The interrupt-driven device_read: enter kernel, block with
	// device_read_continue, take the transfer interrupt on the current
	// stack, io_done hands its stack to the reader, recognition finishes
	// the read inline, exit kernel.
	for _, kind := range []obs.Kind{
		obs.KernelEntry,
		obs.Block,
		obs.Interrupt,
		obs.StackHandoff,
		obs.Recognition,
		obs.KernelExit,
	} {
		if !hasKind(tr, kind) {
			t.Errorf("trace lacks %v:\n%s", kind, obs.TransferString(tr))
		}
	}
	// No context switch anywhere: every transfer is a handoff or a
	// continuation call.
	if hasKind(tr, obs.ContextSwitch) {
		t.Errorf("device path contains a context switch:\n%s", obs.TransferString(tr))
	}
	// The recognition must be of the device continuation specifically,
	// and the interrupt must precede the handoff (completion flows
	// interrupt -> io_done -> reader).
	interruptAt, handoffAt, recAt := -1, -1, -1
	for i, e := range tr {
		switch {
		case e.Kind == obs.Interrupt && interruptAt < 0:
			interruptAt = i
		case e.Kind == obs.StackHandoff && handoffAt < 0:
			handoffAt = i
		case e.Kind == obs.Recognition &&
			strings.Contains(e.Detail, "device_read_continue"):
			recAt = i
		}
	}
	if recAt < 0 {
		t.Fatalf("no recognition of device_read_continue:\n%s", obs.TransferString(tr))
	}
	if !(interruptAt < handoffAt && handoffAt < recAt) {
		t.Fatalf("order wrong: interrupt@%d handoff@%d recognition@%d\n%s",
			interruptAt, handoffAt, recAt, obs.TransferString(tr))
	}
}
