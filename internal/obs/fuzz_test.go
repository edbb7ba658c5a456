package obs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/machine"
)

// FuzzSummarize feeds arbitrary bytes to traceview's two readers.
// Neither may panic (or run out of memory: ReadChrome bounds every tid
// by MaxTID), and since both parse with ReadChrome, they accept and
// reject the same inputs. The corpus starts from a kernel-event export
// and a span export.
//
//	go test -run '^$' -fuzz FuzzSummarize -fuzztime 10s ./internal/obs
func FuzzSummarize(f *testing.F) {
	spans := NewRecorder(machine.NewClock(), 0)
	spans.RecordSpan(Span{Trace: 7, ID: 1, Name: "kv.op", Seg: SegQueue, Start: 0, End: 100})
	spans.RecordSpan(Span{Trace: 7, ID: 2, Parent: 1, Name: "net.wire", Seg: SegWire, TID: 3, Start: 10, End: 60})
	spans.RecordSpan(Span{Trace: 9, ID: 3, Name: "kv.op", Seg: SegQueue, Detail: "shed:deadline", Start: 5, End: 40})
	remote := NewRecorder(machine.NewClock(), 0)
	remote.RecordSpan(Span{Trace: 7, ID: 4, Parent: 2, Name: "kv.serve", Seg: SegService, TID: 1, Start: 20, End: 50})
	remote.Census = Census{StackHighWater: 2, BlockedHighWater: 9, LiveThreads: 12}
	for _, recs := range [][]*Recorder{{fillRecorder()}, {fillRecoveryRecorder()}, {spans, remote}} {
		var b bytes.Buffer
		if err := WriteChrome(&b, recs...); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, errEvents := Summarize(data)
		_, errSpans := SummarizeSpans(data)
		if (errEvents == nil) != (errSpans == nil) {
			t.Fatalf("Summarize error %v, SummarizeSpans error %v", errEvents, errSpans)
		}
	})
}

// FuzzParseSample checks the -sample grammar on arbitrary input:
// ParseSample never panics, and a rate n it accepts is at least 1 and
// reads back from its canonical spelling, fmt.Sprintf("1/%d", n). The
// corpus starts from TestParseSample's table.
//
//	go test -run '^$' -fuzz FuzzParseSample -fuzztime 10s ./internal/obs
func FuzzParseSample(f *testing.F) {
	for in := range goodSamples {
		f.Add(in)
	}
	for in := range badSamples {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		n, err := ParseSample(in)
		if err != nil {
			return
		}
		if n < 1 {
			t.Fatalf("ParseSample(%q) accepted rate %d", in, n)
		}
		canon := fmt.Sprintf("1/%d", n)
		if again, err := ParseSample(canon); err != nil || again != n {
			t.Fatalf("ParseSample(%q) = %d, but ParseSample(%q) = %d, %v", in, n, canon, again, err)
		}
	})
}
