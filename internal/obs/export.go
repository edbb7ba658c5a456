package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/machine"
)

// This file holds the exporters: the Chrome trace_event JSON writer
// (loadable in Perfetto / about:tracing), the matching reader, and the
// traceview summary built by replaying an exported file through a fresh
// Recorder. All output is byte-deterministic for identical inputs:
// events are written in a total order (time, machine, sequence),
// timestamps are formatted with integer math, and every table iterates
// sorted keys.

// WriteChrome writes the retained events of one or more recorders as
// Chrome trace_event JSON. Each recorder becomes one pid ("machine N"),
// each thread one tid; events are instant events ("ph":"i") carrying the
// kind as the name and the full event payload in args, so a reader can
// reconstruct the event stream exactly.
func WriteChrome(w io.Writer, recs ...*Recorder) error {
	type pidEvent struct {
		pid int
		ev  Event
	}
	var all []pidEvent
	for pid, r := range recs {
		if r == nil {
			continue
		}
		for _, ev := range r.Events() {
			all = append(all, pidEvent{pid, ev})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.When != b.ev.When {
			return a.ev.When < b.ev.When
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		return a.ev.Seq < b.ev.Seq
	})

	// Thread-name metadata: the first event naming a tid wins.
	type pidTid struct{ pid, tid int }
	names := make(map[pidTid]string)
	var nameOrder []pidTid
	for _, pe := range all {
		if pe.ev.TID <= 0 || pe.ev.Thread == "" {
			continue
		}
		k := pidTid{pe.pid, pe.ev.TID}
		if _, ok := names[k]; !ok {
			names[k] = pe.ev.Thread
			nameOrder = append(nameOrder, k)
		}
	}
	sort.Slice(nameOrder, func(i, j int) bool {
		if nameOrder[i].pid != nameOrder[j].pid {
			return nameOrder[i].pid < nameOrder[j].pid
		}
		return nameOrder[i].tid < nameOrder[j].tid
	})

	var b bytes.Buffer
	b.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line []byte) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.Write(line)
	}
	for _, k := range nameOrder {
		line := fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			k.pid, k.tid, jsonString(names[k]))
		emit([]byte(line))
	}
	for _, pe := range all {
		ev := pe.ev
		var line bytes.Buffer
		fmt.Fprintf(&line,
			`{"name":%s,"cat":"kernel","ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"args":{"seq":%d,"ns":%d`,
			jsonString(ev.Kind.String()), pe.pid, ev.TID, microTS(ev.When), ev.Seq, uint64(ev.When))
		if ev.Arg != 0 {
			fmt.Fprintf(&line, `,"arg":%d`, ev.Arg)
		}
		if ev.Thread != "" {
			fmt.Fprintf(&line, `,"thread":%s`, jsonString(ev.Thread))
		}
		if ev.Cont != "" {
			fmt.Fprintf(&line, `,"cont":%s`, jsonString(ev.Cont))
		}
		if ev.Detail != "" {
			fmt.Fprintf(&line, `,"detail":%s`, jsonString(ev.Detail))
		}
		line.WriteString("}}")
		emit(line.Bytes())
	}
	writeChromeSpans(&b, emit, recs)
	b.WriteString("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"machsim\"")
	fmt.Fprintf(&b, ",\"machines\":%d", len(recs))
	writeChromeCensus(&b, recs)
	b.WriteString("}}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// writeChromeSpans emits the recorded causal spans as complete events
// ("ph":"X") plus flow arrows ("s"/"f" pairs) connecting every span to a
// parent that lives on a different machine — the cross-machine hops of
// one traced operation render as arrows in Perfetto. Ids larger than
// 2^53 do not survive JSON numbers, so trace/span/parent ids are encoded
// as fixed-width hex strings.
func writeChromeSpans(b *bytes.Buffer, emit func([]byte), recs []*Recorder) {
	type pidSpan struct {
		pid int
		sp  Span
	}
	var all []pidSpan
	byID := make(map[uint64]pidSpan)
	for pid, r := range recs {
		if r == nil {
			continue
		}
		for _, chunk := range r.SpanChunks() {
			for _, sp := range chunk {
				ps := pidSpan{pid, sp}
				all = append(all, ps)
				if _, ok := byID[sp.ID]; !ok {
					byID[sp.ID] = ps
				}
			}
		}
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.sp.Start != b.sp.Start {
			return a.sp.Start < b.sp.Start
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		return a.sp.ID < b.sp.ID
	})
	for _, ps := range all {
		sp := ps.sp
		var line bytes.Buffer
		fmt.Fprintf(&line,
			`{"name":%s,"cat":"span","ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,`+
				`"args":{"trace":"%016x","span":"%016x","parent":"%016x","seg":%s,"ns":%d,"durns":%d`,
			jsonString(sp.Name), ps.pid, sp.TID, microTS(sp.Start),
			microTS(machine.Time(sp.Duration())), sp.Trace, sp.ID, sp.Parent,
			jsonString(sp.Seg.String()), uint64(sp.Start), uint64(sp.Duration()))
		if sp.Detail != "" {
			fmt.Fprintf(&line, `,"detail":%s`, jsonString(sp.Detail))
		}
		line.WriteString("}}")
		emit(line.Bytes())
		if sp.Parent == 0 {
			continue
		}
		par, ok := byID[sp.Parent]
		if !ok || par.pid == ps.pid {
			continue
		}
		start := fmt.Sprintf(
			`{"name":"causal","cat":"span","ph":"s","id":"%016x","pid":%d,"tid":%d,"ts":%s}`,
			sp.ID, par.pid, par.sp.TID, microTS(par.sp.Start))
		finish := fmt.Sprintf(
			`{"name":"causal","cat":"span","ph":"f","bp":"e","id":"%016x","pid":%d,"tid":%d,"ts":%s}`,
			sp.ID, ps.pid, sp.TID, microTS(sp.Start))
		emit([]byte(start))
		emit([]byte(finish))
	}
}

// writeChromeCensus appends the per-machine memory census to otherData
// when any recorder carries one; traces exported without a census keep
// their historical byte shape.
func writeChromeCensus(b *bytes.Buffer, recs []*Recorder) {
	any := false
	for _, r := range recs {
		if r != nil && !r.Census.Zero() {
			any = true
			break
		}
	}
	if !any {
		return
	}
	b.WriteString(",\"census\":[")
	first := true
	for pid, r := range recs {
		if r == nil || r.Census.Zero() {
			continue
		}
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(b, `{"machine":%d,"stacks_hw":%d,"blocked_hw":%d,"threads":%d}`,
			pid, r.Census.StackHighWater, r.Census.BlockedHighWater, r.Census.LiveThreads)
	}
	b.WriteString("]")
}

// microTS renders a nanosecond clock reading as the microsecond
// timestamp Chrome expects, with integer math so the formatting is
// deterministic.
func microTS(t machine.Time) string {
	ns := uint64(t)
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Strings always marshal.
		panic(err)
	}
	return string(b)
}

// MachineEvents is the decoded event stream of one pid in an exported
// trace.
type MachineEvents struct {
	PID    int
	Events []Event
	// Spans holds the machine's exported causal spans, in export order.
	Spans []Span
	// ThreadNames maps tid to the exported thread_name metadata.
	ThreadNames map[int]string
}

type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	Args struct {
		Name   string `json:"name"` // metadata events
		Seq    uint64 `json:"seq"`
		NS     uint64 `json:"ns"`
		Arg    int    `json:"arg"`
		Thread string `json:"thread"`
		Cont   string `json:"cont"`
		Detail string `json:"detail"`
		// Span payload ("cat":"span","ph":"X"): hex-encoded ids plus
		// exact nanosecond endpoints.
		Trace  string `json:"trace"`
		Span   string `json:"span"`
		Parent string `json:"parent"`
		Seg    string `json:"seg"`
		DurNS  uint64 `json:"durns"`
	} `json:"args"`
}

type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// MaxTID bounds the thread ids ReadChrome accepts. A kernel mints
// thread ids sequentially from 1, and simulated runs stay far below it
// (the densest mtload puts about 8 000 threads on a machine, the
// million-session run about 4 000). Replay grows a per-thread latency
// table up to the largest id it sees, so the bound also caps what a
// trace file can make it allocate.
const MaxTID = 1 << 22

// ReadChrome parses a trace written by WriteChrome back into per-machine
// event streams, ordered by pid. It rejects an event whose tid is
// negative or above MaxTID.
func ReadChrome(data []byte) ([]*MachineEvents, error) {
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("obs: bad trace JSON: %w", err)
	}
	byPID := make(map[int]*MachineEvents)
	var pids []int
	machineFor := func(pid int) *MachineEvents {
		m, ok := byPID[pid]
		if !ok {
			m = &MachineEvents{PID: pid, ThreadNames: make(map[int]string)}
			byPID[pid] = m
			pids = append(pids, pid)
		}
		return m
	}
	for i, ce := range doc.TraceEvents {
		if ce.TID < 0 || ce.TID > MaxTID {
			return nil, fmt.Errorf("obs: trace event %d (%q): tid %d outside [0, %d]", i, ce.Name, ce.TID, MaxTID)
		}
		m := machineFor(ce.PID)
		if ce.Ph == "M" {
			if ce.Name == "thread_name" {
				m.ThreadNames[ce.TID] = ce.Args.Name
			}
			continue
		}
		if ce.Cat == "span" {
			if ce.Ph != "X" {
				continue // flow arrows carry no extra payload
			}
			sp, err := spanFromChrome(ce)
			if err != nil {
				return nil, err
			}
			m.Spans = append(m.Spans, sp)
			continue
		}
		kind, ok := KindFromString(ce.Name)
		if !ok {
			continue
		}
		m.Events = append(m.Events, Event{
			Seq:    ce.Args.Seq,
			When:   machine.Time(ce.Args.NS),
			Kind:   kind,
			TID:    ce.TID,
			Arg:    ce.Args.Arg,
			Thread: ce.Args.Thread,
			Cont:   ce.Args.Cont,
			Detail: ce.Args.Detail,
		})
	}
	sort.Ints(pids)
	out := make([]*MachineEvents, 0, len(byPID))
	for _, pid := range pids {
		m := byPID[pid]
		// Within one machine the emit sequence is the event order.
		sort.SliceStable(m.Events, func(i, j int) bool {
			return m.Events[i].Seq < m.Events[j].Seq
		})
		out = append(out, m)
	}
	return out, nil
}

// spanFromChrome decodes one exported span event.
func spanFromChrome(ce chromeEvent) (Span, error) {
	tr, err := strconv.ParseUint(ce.Args.Trace, 16, 64)
	if err != nil {
		return Span{}, fmt.Errorf("obs: span %q: bad trace id %q", ce.Name, ce.Args.Trace)
	}
	id, err := strconv.ParseUint(ce.Args.Span, 16, 64)
	if err != nil {
		return Span{}, fmt.Errorf("obs: span %q: bad span id %q", ce.Name, ce.Args.Span)
	}
	par, err := strconv.ParseUint(ce.Args.Parent, 16, 64)
	if err != nil {
		return Span{}, fmt.Errorf("obs: span %q: bad parent id %q", ce.Name, ce.Args.Parent)
	}
	seg, ok := SegFromString(ce.Args.Seg)
	if !ok {
		return Span{}, fmt.Errorf("obs: span %q: unknown segment %q", ce.Name, ce.Args.Seg)
	}
	return Span{
		Trace:  tr,
		ID:     id,
		Parent: par,
		Name:   ce.Name,
		Seg:    seg,
		TID:    ce.TID,
		Detail: ce.Args.Detail,
		Start:  machine.Time(ce.Args.NS),
		End:    machine.Time(ce.Args.NS + ce.Args.DurNS),
	}, nil
}

// SummarizeSpans ingests a Chrome trace exported by WriteChrome and
// returns the spanview report: span counts per machine, the
// critical-path attribution table recomputed from the exported spans,
// and the memory census when the export carries one.
func SummarizeSpans(data []byte) (string, error) {
	machines, err := ReadChrome(data)
	if err != nil {
		return "", err
	}
	sets := make([][]Span, 0, len(machines))
	var b bytes.Buffer
	total := 0
	for _, m := range machines {
		total += len(m.Spans)
		sets = append(sets, m.Spans)
	}
	fmt.Fprintf(&b, "spans: %d machine(s), %d spans\n", len(machines), total)
	for _, m := range machines {
		fmt.Fprintf(&b, "  machine %d: %d spans\n", m.PID, len(m.Spans))
	}
	writeShedSection(&b, sets)
	b.WriteString("\n")
	WriteCritPath(&b, AnalyzeCritPath(sets...))
	writeCensusSection(&b, data)
	return b.String(), nil
}

// writeShedSection tallies op spans that closed on an overload shed
// (Detail "shed:<reason>" — deadline, expired, rejected, retry-budget,
// breaker) so the spanview shows where an armed run refused work.
// Silent when nothing shed, which keeps unarmed span summaries
// unchanged.
func writeShedSection(b *bytes.Buffer, sets [][]Span) {
	shed := make(map[string]int)
	for _, set := range sets {
		for _, sp := range set {
			if strings.HasPrefix(sp.Detail, "shed:") {
				shed[strings.TrimPrefix(sp.Detail, "shed:")]++
			}
		}
	}
	if len(shed) == 0 {
		return
	}
	reasons := make([]string, 0, len(shed))
	n := 0
	for r, c := range shed {
		reasons = append(reasons, r)
		n += c
	}
	sort.Strings(reasons)
	fmt.Fprintf(b, "shed ops: %d (", n)
	for i, r := range reasons {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %d", r, shed[r])
	}
	b.WriteString(")\n")
}

// writeCensusSection echoes the exported per-machine memory census, when
// present.
func writeCensusSection(b *bytes.Buffer, data []byte) {
	var doc struct {
		OtherData struct {
			Census []struct {
				Machine   int `json:"machine"`
				StacksHW  int `json:"stacks_hw"`
				BlockedHW int `json:"blocked_hw"`
				Threads   int `json:"threads"`
			} `json:"census"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.OtherData.Census) == 0 {
		return
	}
	b.WriteString("\nmemory census:\n")
	for _, c := range doc.OtherData.Census {
		fmt.Fprintf(b, "  machine %d: %d kernel stacks high-water for %d blocked threads high-water (%d live threads)\n",
			c.Machine, c.StacksHW, c.BlockedHW, c.Threads)
	}
}

// Summarize ingests a Chrome trace exported by WriteChrome and returns
// the traceview report: per-thread timelines plus the histogram and
// continuation tables recomputed by replaying the events.
func Summarize(data []byte) (string, error) {
	machines, err := ReadChrome(data)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	total := 0
	var lo, hi machine.Time
	firstSample := true
	for _, m := range machines {
		total += len(m.Events)
		for _, ev := range m.Events {
			if firstSample || ev.When < lo {
				lo = ev.When
			}
			if firstSample || ev.When > hi {
				hi = ev.When
			}
			firstSample = false
		}
	}
	fmt.Fprintf(&b, "trace: %d machine(s), %d events, %s - %s\n",
		len(machines), total, fmtNS(uint64(lo)), fmtNS(uint64(hi)))
	for _, m := range machines {
		fmt.Fprintf(&b, "\nmachine %d: %d events\n", m.PID, len(m.Events))
		writeThreadTable(&b, m)
		writeRecoverySection(&b, m)
		rep := NewReplay()
		for _, ev := range m.Events {
			rep.Ingest(ev.Kind, ev.TID, ev.Arg, ev.When, rep.Intern(ev.Cont))
		}
		b.WriteString("\n")
		rep.WriteReport(&b)
	}
	return b.String(), nil
}

// writeRecoverySection summarizes the crash-recovery events of one
// machine — crashes, warm reboots, peer deaths/recoveries, failovers —
// as a count line plus a chronological timeline. Heartbeats are counted
// but not listed (a long trace may carry many). Silent when the trace
// holds no recovery events, so pre-crash traces keep their exact shape.
func writeRecoverySection(b *bytes.Buffer, m *MachineEvents) {
	var lines []string
	var crashes, reboots, hbs, deaths, recoveries, overs, backs, elections, fences int
	add := func(when machine.Time, what string) {
		lines = append(lines, fmt.Sprintf("    %12s  %s", fmtNS(uint64(when)), what))
	}
	for _, ev := range m.Events {
		switch ev.Kind {
		case MachineCrash:
			crashes++
			add(ev.When, fmt.Sprintf("crash of incarnation %d: %s", ev.Arg, ev.Detail))
		case MachineReboot:
			reboots++
			add(ev.When, fmt.Sprintf("warm reboot as incarnation %d", ev.Arg))
		case Heartbeat:
			hbs++
		case PeerDeath:
			if ev.Arg == 1 {
				recoveries++
				add(ev.When, fmt.Sprintf("peer on %s heard again", ev.Detail))
			} else {
				deaths++
				add(ev.When, fmt.Sprintf("peer on %s declared dead", ev.Detail))
			}
		case Failover:
			name := ev.Thread
			if name == "" {
				name = fmt.Sprintf("tid %d", ev.TID)
			}
			if ev.Arg == 1 {
				overs++
				add(ev.When, fmt.Sprintf("%s failover %s", name, ev.Detail))
			} else {
				backs++
				add(ev.When, fmt.Sprintf("%s failback %s", name, ev.Detail))
			}
		case Election:
			elections++
			add(ev.When, fmt.Sprintf("election: %s -> epoch %d", ev.Detail, ev.Arg))
		case Fencing:
			fences++
			add(ev.When, fmt.Sprintf("fencing rejection: %s (stale epoch %d)", ev.Detail, ev.Arg))
		}
	}
	if crashes+reboots+hbs+deaths+recoveries+overs+backs+elections+fences == 0 {
		return
	}
	fmt.Fprintf(b, "\n  recovery: %d crashes, %d reboots, %d heartbeats, %d peer deaths, %d recoveries, %d failovers, %d failbacks\n",
		crashes, reboots, hbs, deaths, recoveries, overs, backs)
	if elections+fences > 0 {
		fmt.Fprintf(b, "  services: %d elections, %d fencing rejections\n", elections, fences)
	}
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// threadRow is one line of the per-thread timeline table.
type threadRow struct {
	tid                  int
	name                 string
	events               int
	first, last          machine.Time
	blocks, handoffs     uint64
	recogs, interruptsOn uint64
}

func writeThreadTable(b *bytes.Buffer, m *MachineEvents) {
	rows := make(map[int]*threadRow)
	var order []int
	rowFor := func(tid int) *threadRow {
		r, ok := rows[tid]
		if !ok {
			r = &threadRow{tid: tid, name: m.ThreadNames[tid]}
			rows[tid] = r
			order = append(order, tid)
		}
		return r
	}
	for _, ev := range m.Events {
		if ev.TID <= 0 {
			continue
		}
		r := rowFor(ev.TID)
		if r.name == "" && ev.Thread != "" {
			r.name = ev.Thread
		}
		if r.events == 0 || ev.When < r.first {
			r.first = ev.When
		}
		if ev.When > r.last {
			r.last = ev.When
		}
		r.events++
		switch ev.Kind {
		case ThreadBlocked:
			r.blocks++
		case StackHandoff:
			r.handoffs++
		case Recognition:
			r.recogs++
		case Interrupt:
			r.interruptsOn++
		}
	}
	sort.Ints(order)
	fmt.Fprintf(b, "  %4s  %-16s %8s %12s %12s %7s %9s %7s %7s\n",
		"tid", "thread", "events", "first", "last", "blocks", "handoffs", "recogs", "intr")
	for _, tid := range order {
		r := rows[tid]
		fmt.Fprintf(b, "  %4d  %-16s %8d %12s %12s %7d %9d %7d %7d\n",
			r.tid, r.name, r.events, fmtNS(uint64(r.first)), fmtNS(uint64(r.last)),
			r.blocks, r.handoffs, r.recogs, r.interruptsOn)
	}
}
