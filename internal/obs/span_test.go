package obs

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestHistogramQuantileBoundaries pins the quantile estimator's edge
// behavior: empty histograms, the extreme quantiles, and distributions
// confined to a single bucket must all produce clamped, sane values.
func TestHistogramQuantileBoundaries(t *testing.T) {
	obs := func(vs ...uint64) *Histogram {
		h := &Histogram{Name: "t"}
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want uint64
	}{
		{"empty-q0", obs(), 0, 0},
		{"empty-q1", obs(), 1, 0},
		{"empty-mid", obs(), 0.5, 0},
		// q=0 rounds the target up to the first sample: the estimate
		// interpolates through that sample's bucket (100 lives in
		// [64,128), whose occupancy is 1, so the estimate is the bucket
		// top) and stays inside [Min, Max].
		{"q0-first-bucket", obs(100, 200, 400), 0, 128},
		// q=1 lands in the last occupied bucket and clamps to max.
		{"q1-clamps-to-max", obs(100, 200, 400), 1, 400},
		// A single sample answers every quantile with itself.
		{"single-q0", obs(777), 0, 777},
		{"single-mid", obs(777), 0.5, 777},
		{"single-q1", obs(777), 1, 777},
		// All samples in one power-of-two bucket: every quantile is
		// clamped into [min, max] of that bucket's occupants.
		{"single-bucket-q0", obs(1000, 1001, 1023), 0, 1000},
		{"single-bucket-q1", obs(1000, 1001, 1023), 1, 1023},
		// Zero is its own bucket with exact bounds.
		{"zero-bucket", obs(0, 0, 0), 0.99, 0},
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
	// Quantiles never leave [Min, Max] for any q on any distribution.
	h := obs(3, 17, 9000, 1<<33)
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		v := h.Quantile(q)
		if v < h.Min || v > h.Max {
			t.Errorf("Quantile(%v) = %d outside [%d, %d]", q, v, h.Min, h.Max)
		}
	}
}

// TestHistogramMergeCommutative checks that Merge order does not matter:
// a∪b and b∪a must agree on every statistic a report derives.
func TestHistogramMergeCommutative(t *testing.T) {
	build := func(vs []uint64) *Histogram {
		h := &Histogram{Name: "m"}
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	a := []uint64{0, 5, 5, 129, 4096}
	b := []uint64{1, 70, 1 << 20}
	ab := build(a)
	ab.Merge(build(b))
	ba := build(b)
	ba.Merge(build(a))
	if ab.Count != ba.Count || ab.Sum != ba.Sum || ab.Min != ba.Min || ab.Max != ba.Max {
		t.Fatalf("merge not commutative: %+v vs %+v", ab, ba)
	}
	if ab.Buckets != ba.Buckets {
		t.Fatal("merged buckets differ by merge order")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if ab.Quantile(q) != ba.Quantile(q) {
			t.Fatalf("Quantile(%v) differs by merge order", q)
		}
	}
	// Merging an empty histogram is a no-op either way.
	solo := build(a)
	solo.Merge(build(nil))
	solo.Merge(nil)
	if solo.Count != uint64(len(a)) || solo.Min != 0 || solo.Max != 4096 {
		t.Fatalf("empty merge disturbed the receiver: %+v", solo)
	}
	empty := build(nil)
	empty.Merge(build(a))
	if empty.Count != uint64(len(a)) || empty.Min != 0 || empty.Max != 4096 {
		t.Fatalf("merge into empty lost samples: %+v", empty)
	}
}

// TestResetClearsSpanState checks that Reset drops the span store, the
// span-id serial, and the stamped census, while keeping the host index
// and sampling rate — those are configuration, not recorded state.
func TestResetClearsSpanState(t *testing.T) {
	clock := machine.NewClock()
	r := NewRecorder(clock, 8)
	r.SetHost(3)
	r.SetSpanSampling(4)
	first := r.NextSpanID(42)
	r.RecordSpan(Span{Trace: 42, ID: first, Name: "x", Start: 0, End: 10})
	r.Census = Census{StackHighWater: 2, BlockedHighWater: 9, LiveThreads: 5}
	if n := spanCount(r); n != 1 {
		t.Fatalf("recorded %d spans, want 1", n)
	}

	r.Reset()
	if n := spanCount(r); n != 0 || len(r.SpanChunks()) != 0 {
		t.Fatalf("Reset kept %d spans in %d chunks", n, len(r.SpanChunks()))
	}
	if !r.Census.Zero() {
		t.Fatalf("Reset kept census %+v", r.Census)
	}
	if r.Host() != 3 {
		t.Fatalf("Reset dropped the host index: %d", r.Host())
	}
	allKept := true
	for i := uint64(1); i <= 64; i++ {
		if !r.SampleTrace(i) {
			allKept = false
			break
		}
	}
	if allKept {
		t.Fatal("Reset appears to have dropped the 1/4 sampling rate")
	}
	// The serial restarts: the same mint sequence reproduces.
	if again := r.NextSpanID(42); again != first {
		t.Fatalf("span-id serial survived Reset: %x vs %x", again, first)
	}
}

// TestRecordSpanDrops pins the free disabled paths: nil recorders and
// unsampled (zero-trace) spans record nothing.
func TestRecordSpanDrops(t *testing.T) {
	var nilRec *Recorder
	nilRec.RecordSpan(Span{Trace: 1, ID: 1})
	if nilRec.SpanChunks() != nil {
		t.Fatal("nil recorder returned spans")
	}
	if nilRec.SampleTrace(7) {
		t.Fatal("nil recorder sampled a trace")
	}
	r := NewRecorder(machine.NewClock(), 8)
	r.RecordSpan(Span{Trace: 0, ID: 1, Name: "dropped"})
	if len(r.SpanChunks()) != 0 {
		t.Fatal("zero-trace span was recorded")
	}
}

// spanCount returns how many spans r holds across its chunks.
func spanCount(r *Recorder) int {
	n := 0
	for _, chunk := range r.SpanChunks() {
		n += len(chunk)
	}
	return n
}

// TestSpanStoreChunks records spans past several chunk boundaries: they
// read back in record order, every chunk but the last is full and none
// is empty, and a recorded span never moves, so a pointer taken right
// after recording it still addresses it once the store has grown.
func TestSpanStoreChunks(t *testing.T) {
	r := NewRecorder(machine.NewClock(), 0)
	const n = 3*spanChunk + 17
	addr := make([]*Span, 0, n)
	for i := range n {
		r.RecordSpan(Span{Trace: uint64(1 + i%7), ID: uint64(i), Start: machine.Time(i)})
		chunks := r.SpanChunks()
		last := chunks[len(chunks)-1]
		addr = append(addr, &last[len(last)-1])
	}
	chunks := r.SpanChunks()
	if len(chunks) != n/spanChunk+1 {
		t.Fatalf("%d spans in %d chunks, want %d", n, len(chunks), n/spanChunk+1)
	}
	i := 0
	for c, chunk := range chunks {
		if len(chunk) == 0 || (c < len(chunks)-1 && len(chunk) != spanChunk) {
			t.Fatalf("chunk %d holds %d spans", c, len(chunk))
		}
		for k := range chunk {
			sp := &chunk[k]
			if sp.ID != uint64(i) {
				t.Fatalf("span %d reads back as span %d", i, sp.ID)
			}
			if sp != addr[i] {
				t.Fatalf("span %d moved after it was recorded", i)
			}
			i++
		}
	}
	if i != n {
		t.Fatalf("read back %d spans, want %d", i, n)
	}
}

// TestMintDeterminism checks the id mint: pure functions of their
// inputs, never the 0 sentinel, and spread across distinct inputs.
func TestMintDeterminism(t *testing.T) {
	seen := map[uint64]bool{}
	for client := uint64(0); client < 8; client++ {
		for op := uint64(1); op <= 64; op++ {
			id := MintTraceID(client, op)
			if id == 0 {
				t.Fatalf("MintTraceID(%d, %d) = 0", client, op)
			}
			if id != MintTraceID(client, op) {
				t.Fatal("MintTraceID not deterministic")
			}
			if seen[id] {
				t.Fatalf("trace id collision at client %d op %d", client, op)
			}
			seen[id] = true
		}
	}
	if MintSpanID(42, 1) == MintSpanID(42, 2) {
		t.Fatal("span ids collide across salts")
	}
	if MintSpanID(42, 1) != MintSpanID(42, 1) {
		t.Fatal("MintSpanID not deterministic")
	}
}

// TestSampleTraceRate checks head sampling: rate 1 keeps everything,
// rate N keeps the deterministic 1-in-N hash class.
func TestSampleTraceRate(t *testing.T) {
	r := NewRecorder(machine.NewClock(), 8)
	for i := uint64(1); i <= 100; i++ {
		if !r.SampleTrace(i) {
			t.Fatalf("default sampling dropped trace %d", i)
		}
	}
	r.SetSpanSampling(4)
	kept := 0
	for i := uint64(1); i <= 4000; i++ {
		if r.SampleTrace(i) {
			kept++
		}
	}
	if kept < 800 || kept > 1200 {
		t.Fatalf("1/4 sampling kept %d of 4000", kept)
	}
	// The decision is a pure function of the id.
	for i := uint64(1); i <= 100; i++ {
		if r.SampleTrace(i) != r.SampleTrace(i) {
			t.Fatal("sampling decision not stable")
		}
	}
}

// goodSamples and badSamples are ParseSample's table: accepted specs
// with their rates, and rejected ones with a fragment of the error.
// FuzzParseSample seeds its corpus from both.
var (
	goodSamples = map[string]int{"1/1": 1, "1/2": 2, "1/1000": 1000}
	badSamples  = map[string]string{
		"":       "want 1/N",
		"4":      "want 1/N",
		"2/4":    "numerator must be 1",
		"1/x":    "bad denominator",
		"1/0":    "denominator must be >= 1",
		"1/-3":   "denominator must be >= 1",
		"1/2/3":  "bad denominator",
		"one/10": "numerator must be 1",
	}
)

// TestParseSample covers the 1/N grammar and its rejections.
func TestParseSample(t *testing.T) {
	for in, want := range goodSamples {
		n, err := ParseSample(in)
		if err != nil || n != want {
			t.Fatalf("ParseSample(%q) = %d, %v; want %d", in, n, err, want)
		}
	}
	for in, frag := range badSamples {
		_, err := ParseSample(in)
		if err == nil {
			t.Fatalf("ParseSample(%q) accepted", in)
		}
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("ParseSample(%q) error %q lacks %q", in, err, frag)
		}
	}
}

// TestSegRoundTrip checks Seg naming both ways — the export format
// depends on it.
func TestSegRoundTrip(t *testing.T) {
	for g := Seg(0); g < NumSegs; g++ {
		s := g.String()
		if s == "unknown" {
			t.Fatalf("segment %d has no name", g)
		}
		got, ok := SegFromString(s)
		if !ok || got != g {
			t.Fatalf("SegFromString(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := SegFromString("bogus"); ok {
		t.Fatal("SegFromString accepted an unknown name")
	}
}
