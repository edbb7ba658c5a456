package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
)

// fillRecorder emits a small synthetic kernel history: two threads, a
// block/handoff pair, an interrupt on a parked processor, and an RPC
// bracket.
func fillRecorder() *Recorder {
	clock := machine.NewClock()
	r := named(NewRecorder(clock, 128), map[int]string{1: "task/cli", 2: "task/srv"})
	r.Emit(KernelEntry, 1, "mach_msg(rpc)")
	r.Emit(RPCStart, 1, "echo")
	clock.Advance(100)
	r.EmitCont(ThreadBlocked, 1, Intern("mach_msg_continue"), "message receive", 0)
	clock.Advance(50)
	r.EmitCont(StackHandoff, 2, Intern("mach_msg_continue"), "from task/cli", 1)
	r.EmitCont(Recognition, 2, Intern("mach_msg_continue"), "mach_msg_continue", 0)
	clock.Advance(25)
	r.Emit(Interrupt, 0, "disk read")
	clock.Advance(825)
	r.Emit(RPCEnd, 1, "")
	r.Emit(KernelExit, 1, "syscall return 0")
	return r
}

func TestWriteChromeValidAndDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, fillRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, fillRecorder()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical recorders exported different bytes")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", a.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// 8 events + 2 thread_name metadata records.
	if len(doc.TraceEvents) != 10 {
		t.Fatalf("traceEvents = %d, want 10", len(doc.TraceEvents))
	}
	if doc.OtherData["machines"] != float64(1) {
		t.Fatalf("otherData.machines = %v", doc.OtherData["machines"])
	}
	// Timestamps are microseconds with integer-math formatting: the
	// ThreadBlocked event at 100 ns must read 0.100.
	if !strings.Contains(a.String(), `"ts":0.100`) {
		t.Fatalf("missing 0.100 µs timestamp:\n%s", a.String())
	}
}

func TestChromeRoundTrip(t *testing.T) {
	r := fillRecorder()
	want := r.Events()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	machines, err := ReadChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 1 || machines[0].PID != 0 {
		t.Fatalf("machines = %+v", machines)
	}
	got := machines[0].Events
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if machines[0].ThreadNames[1] != "task/cli" || machines[0].ThreadNames[2] != "task/srv" {
		t.Fatalf("thread names = %v", machines[0].ThreadNames)
	}
}

func TestChromeMultiMachineMerge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fillRecorder(), fillRecorder()); err != nil {
		t.Fatal(err)
	}
	machines, err := ReadChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 2 || machines[0].PID != 0 || machines[1].PID != 1 {
		t.Fatalf("machines = %+v", machines)
	}
	// Both machines survive the merged, time-sorted writing intact.
	if len(machines[0].Events) != 8 || len(machines[1].Events) != 8 {
		t.Fatalf("event counts = %d, %d", len(machines[0].Events), len(machines[1].Events))
	}
	// A nil recorder is skipped but still counted in the machines total.
	buf.Reset()
	if err := WriteChrome(&buf, nil, fillRecorder()); err != nil {
		t.Fatal(err)
	}
	machines, err = ReadChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 1 || machines[0].PID != 1 {
		t.Fatalf("nil-skipping machines = %+v", machines)
	}
}

func TestSummarizeReplayMatchesLive(t *testing.T) {
	r := fillRecorder()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	out, err := Summarize(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"trace: 1 machine(s), 8 events",
		"machine 0: 8 events",
		"task/cli",
		"task/srv",
		"continuation profile:",
		"mach_msg_continue",
		"latency histograms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	// The replayed report must match the live recorder's report exactly.
	var live strings.Builder
	r.WriteReport(&live)
	if !strings.Contains(out, live.String()) {
		t.Fatalf("replayed report diverges from live:\nlive:\n%s\nsummary:\n%s",
			live.String(), out)
	}
}

func TestSummarizeRejectsGarbage(t *testing.T) {
	if _, err := Summarize([]byte("not json")); err == nil {
		t.Fatal("Summarize accepted garbage")
	}
}

// fillRecoveryRecorder emits a synthetic crash-recovery history: a
// crash, a warm reboot with heartbeats, a peer death + recovery seen
// from the far side, and a failover/failback pair.
func fillRecoveryRecorder() *Recorder {
	clock := machine.NewClock()
	r := named(NewRecorder(clock, 128), map[int]string{3: "netmsg", 6: "netmsg1", 7: "net-client/cli"})
	clock.Advance(40_000_000)
	r.EmitArg(MachineCrash, 0, "3 threads, 2 ports, 1 pending I/O, 0 unacked", 1)
	clock.Advance(20_000_000)
	r.EmitArg(PeerDeath, 0, "ne0", 0)
	r.EmitArg(Failover, 7, "primary -> replica", 1)
	clock.Advance(60_000_000)
	r.EmitArg(MachineReboot, 0, "", 2)
	r.EmitArg(Heartbeat, 3, "ne0", 2)
	r.EmitArg(Heartbeat, 6, "ne1", 2)
	clock.Advance(1_000_000)
	r.EmitArg(PeerDeath, 0, "ne0", 1)
	r.EmitArg(Failover, 7, "replica -> primary", 0)
	return r
}

// TestSummarizeRecoverySection is the traceview golden test for the
// crash-recovery events: a synthetic trace must render the exact count
// line and timeline.
func TestSummarizeRecoverySection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fillRecoveryRecorder()); err != nil {
		t.Fatal(err)
	}
	out, err := Summarize(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	golden := `  recovery: 1 crashes, 1 reboots, 2 heartbeats, 1 peer deaths, 1 recoveries, 1 failovers, 1 failbacks
         40.00ms  crash of incarnation 1: 3 threads, 2 ports, 1 pending I/O, 0 unacked
         60.00ms  peer on ne0 declared dead
         60.00ms  net-client/cli failover primary -> replica
        120.00ms  warm reboot as incarnation 2
        121.00ms  peer on ne0 heard again
        121.00ms  net-client/cli failback replica -> primary
`
	if !strings.Contains(out, golden) {
		t.Fatalf("summary recovery section does not match golden.\nwant:\n%s\ngot:\n%s", golden, out)
	}
}

// TestSummarizeNoRecoverySectionWhenClean: traces without recovery
// events keep their historical shape.
func TestSummarizeNoRecoverySectionWhenClean(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, fillRecorder()); err != nil {
		t.Fatal(err)
	}
	out, err := Summarize(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "recovery:") {
		t.Fatalf("clean trace grew a recovery section:\n%s", out)
	}
}

// TestSummarizeSpansShedSection: op spans closed with a "shed:<reason>"
// detail are tallied by reason in the spanview header; traces with no
// shed spans keep their historical shape.
func TestSummarizeSpansShedSection(t *testing.T) {
	clock := machine.NewClock()
	r := NewRecorder(clock, 128)
	r.RecordSpan(Span{Trace: 7, ID: 1, Name: "kv.op", Seg: SegQueue,
		Detail: "shed:deadline", Start: 0, End: 100})
	r.RecordSpan(Span{Trace: 8, ID: 1, Name: "kv.op", Seg: SegQueue,
		Detail: "shed:breaker", Start: 0, End: 50})
	r.RecordSpan(Span{Trace: 9, ID: 1, Name: "kv.op", Seg: SegQueue,
		Detail: "shed:deadline", Start: 10, End: 60})
	r.RecordSpan(Span{Trace: 10, ID: 1, Name: "kv.op", Seg: SegQueue,
		Start: 0, End: 200})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	out, err := SummarizeSpans(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shed ops: 3 (breaker 1, deadline 2)") {
		t.Fatalf("missing shed section:\n%s", out)
	}

	buf.Reset()
	clean := NewRecorder(machine.NewClock(), 128)
	clean.RecordSpan(Span{Trace: 7, ID: 1, Name: "kv.op", Seg: SegQueue,
		Start: 0, End: 100})
	if err := WriteChrome(&buf, clean); err != nil {
		t.Fatal(err)
	}
	out, err = SummarizeSpans(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "shed ops:") {
		t.Fatalf("clean trace grew a shed section:\n%s", out)
	}
}

// TestReadChromeRejectsOutOfRangeTID pins testdata/huge_tid.json, one
// wakeup event on tid 400000000000: replay once grew its per-thread
// latency table up to that id and died out of memory. Summarize and
// SummarizeSpans must now refuse it, and a negative tid, with an error
// naming the event; tids 0 and MaxTID still read.
func TestReadChromeRejectsOutOfRangeTID(t *testing.T) {
	huge, err := os.ReadFile("testdata/huge_tid.json")
	if err != nil {
		t.Fatal(err)
	}
	withTID := func(tid int) []byte {
		return bytes.Replace(huge, []byte(`"tid":400000000000`), []byte(fmt.Sprintf(`"tid":%d`, tid)), 1)
	}
	for _, tc := range []struct {
		data []byte
		want string
	}{
		{huge, `trace event 0 ("wakeup"): tid 400000000000 outside [0, 4194304]`},
		{withTID(-1), `trace event 0 ("wakeup"): tid -1 outside`},
		{withTID(MaxTID + 1), `tid 4194305 outside`},
	} {
		for name, summarize := range map[string]func([]byte) (string, error){
			"Summarize": Summarize, "SummarizeSpans": SummarizeSpans,
		} {
			if _, err := summarize(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
			}
		}
	}
	for _, tid := range []int{0, MaxTID} {
		if _, err := Summarize(withTID(tid)); err != nil {
			t.Errorf("tid %d: %v", tid, err)
		}
	}
}
