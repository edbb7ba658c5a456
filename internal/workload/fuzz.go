// The fault-schedule fuzzer: generate random nemesis schedules from a
// seed, run the replicated KV workload under each, and check every
// client history for linearizability and every ack log for split brain.
// The simulator is deterministic, so a violating schedule is not a flaky
// repro — the fuzzer prints the exact `-faults seed:spec` argument that
// re-runs it, after greedily shrinking the schedule to a minimal set of
// rules that still violates.
package workload

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/overload"
)

// FuzzKVOptions configures one fuzzing campaign.
type FuzzKVOptions struct {
	Flavor kern.Flavor
	Arch   machine.Arch
	// Seed names the campaign; schedule i derives its own seed from it.
	Seed uint64
	// Count is how many schedules to generate and check.
	Count int
	// Parallel drives each run's cluster with the parallel driver.
	Parallel bool
	// Break runs the deliberately broken replicas (KVSpec.Break) — the
	// checker-must-catch-this mode.
	Break bool
	// Overload arms the overload controls on every schedule's run, so the
	// campaign also fuzzes the shedding paths (deadline expiry, admission
	// rejection, breaker fast-fails) against the same safety properties:
	// shed ops must be definite no-ops.
	Overload overload.Policy
	// BreakOverload runs the replica that applies already-expired writes
	// before claiming they were shed (KVSpec.BreakOverload) — the armed
	// campaign's checker-must-catch-this mode.
	BreakOverload bool
	// OutDir, when nonempty, receives one history dump per schedule.
	OutDir string
	// Out receives progress lines (io.Discard when nil).
	Out io.Writer
}

// FuzzKVResult summarizes a campaign.
type FuzzKVResult struct {
	Ran        int
	Violations int
	// MinSpec is the first violation's shrunken reproducing rule list,
	// and MinSeed the fault seed that pairs with it ("" / 0 when clean).
	MinSpec string
	MinSeed uint64
}

// fuzzVerdict is one run's outcome against the safety properties. Failed
// operations are NOT a violation — abandoning an op during a long
// partition is legal; claiming it succeeded with the wrong value is not.
type fuzzVerdict struct {
	res *KVResult
	bad bool
	why string
}

func fuzzRun(opt FuzzKVOptions, faultSeed uint64, rules []string) (fuzzVerdict, error) {
	spec := DefaultKV()
	spec.Parallel = opt.Parallel
	spec.Break = opt.Break
	spec.Overload = opt.Overload
	spec.BreakOverload = opt.BreakOverload
	if opt.BreakOverload {
		// The phantom-write bug only fires when an expired write and a
		// later read of the same key collide; the default script's key
		// space is too sparse to catch it reliably, so armed break
		// campaigns use the denser mix (same shape as kvOverloadSpec).
		spec.Ops = 120
		spec.Keyspan = 8
		spec.PutPer10k = 5000
	}
	spec.FaultSeed = faultSeed
	if len(rules) > 0 {
		fs, err := fault.ParseSpec(strings.Join(rules, ","))
		if err != nil {
			return fuzzVerdict{}, err
		}
		spec.FaultSpec = fs
	}
	res := RunKV(opt.Flavor, opt.Arch, spec)
	v := fuzzVerdict{res: res}
	switch {
	case !res.Check.Linearizable:
		v.bad, v.why = true, res.Check.String()
	case len(res.SplitBrain) > 0:
		v.bad, v.why = true, fmt.Sprintf("split brain: %s", splitBrainStr(res.SplitBrain))
	case res.Mismatches > 0:
		v.bad, v.why = true, fmt.Sprintf("%d acked-put/get mismatches", res.Mismatches)
	}
	return v, nil
}

// fuzzSchedule renders schedule i of a campaign as -faults grammar rules.
// Windows start early (10-45ms) and stay short (10-40ms) so the heal
// lands while client traffic is still running — the post-heal
// reconciliation is where histories go wrong, and a fault that outlives
// the workload tests nothing. At most one probabilistic rule is emitted,
// since ParseSpec rejects duplicate probabilistic keys.
func fuzzSchedule(campaign uint64, i int) (uint64, []string) {
	seed := campaign ^ uint64(i+1)*0x9e3779b97f4a7c15
	rng := NewRNG(seed)
	window := func() string {
		at := 10 + rng.Intn(36)  // ms
		dur := 10 + rng.Intn(31) // ms
		return fmt.Sprintf("@%dms+%dms", at, dur)
	}
	partitions := []string{"1|0.2.3", "2|0.1.3", "0.1|2.3", "3|0.1.2"}
	n := 1 + rng.Intn(3)
	rules := make([]string, 0, n+1)
	for r := 0; r < n; r++ {
		switch rng.Intn(11) {
		case 0, 1, 2, 3:
			rules = append(rules, "partition="+partitions[rng.Intn(len(partitions))]+window())
		case 4, 5:
			src := rng.Intn(4)
			dst := (src + 1 + rng.Intn(3)) % 4
			rules = append(rules, fmt.Sprintf("link=%d>%d:drop%s", src, dst, window()))
		case 6, 7:
			src := rng.Intn(4)
			dst := (src + 1 + rng.Intn(3)) % 4
			rules = append(rules, fmt.Sprintf("link=%d>%d:delay:%dms%s",
				src, dst, 1+rng.Intn(8), window()))
		case 8:
			rules = append(rules, fmt.Sprintf("gray=%d:%d%s", 1+rng.Intn(2), 2+rng.Intn(9), window()))
		case 9:
			// Demand burst: inert for the closed-loop kv clients on its
			// own, but it widens the trigger vocabulary the armed
			// campaigns combine with gray/delay windows.
			rules = append(rules, fmt.Sprintf("burst=%d%s", 2+rng.Intn(4), window()))
		default:
			rules = append(rules, fmt.Sprintf("crash=%d@%dms:reboot+%dms",
				rng.Intn(4), 20+rng.Intn(61), 10+rng.Intn(91)))
		}
	}
	if rng.Hit(2000) {
		rules = append(rules, "drop=0.05")
	}
	return seed, rules
}

// fuzzShrink greedily removes rules while the violation persists: the
// returned list is locally minimal (dropping any single rule makes the
// run pass). An empty result means the build violates with no faults at
// all — only the broken replicas do that.
func fuzzShrink(opt FuzzKVOptions, faultSeed uint64, rules []string) []string {
	shrunk := append([]string(nil), rules...)
	for changed := true; changed; {
		changed = false
		for i := range shrunk {
			cand := append(append([]string(nil), shrunk[:i]...), shrunk[i+1:]...)
			v, err := fuzzRun(opt, faultSeed, cand)
			if err == nil && v.bad {
				shrunk = cand
				changed = true
				break
			}
		}
	}
	return shrunk
}

// FuzzKV runs a fuzzing campaign: Count schedules from Seed, each run
// checked, the first violation shrunk to a minimal reproducing spec.
// The campaign is a pure function of its options — reruns print the
// same bytes.
func FuzzKV(opt FuzzKVOptions) (FuzzKVResult, error) {
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	if opt.OutDir != "" {
		if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
			return FuzzKVResult{}, err
		}
	}
	var fz FuzzKVResult
	for i := 0; i < opt.Count; i++ {
		seed, rules := fuzzSchedule(opt.Seed, i)
		v, err := fuzzRun(opt, seed, rules)
		if err != nil {
			return fz, fmt.Errorf("schedule %d (%s): %w", i, strings.Join(rules, ","), err)
		}
		fz.Ran++
		verdict := "ok"
		if v.bad {
			verdict = "VIOLATION: " + v.why
		}
		fmt.Fprintf(out, "fuzz %d/%d seed=%d faults=%s -> %d/%d ops ok, %s\n",
			i+1, opt.Count, seed, strings.Join(rules, ","),
			v.res.Completed, v.res.Completed+v.res.Failed, verdict)
		if opt.OutDir != "" {
			if err := dumpHistory(opt.OutDir, i, seed, rules, v); err != nil {
				return fz, err
			}
		}
		if !v.bad {
			continue
		}
		fz.Violations++
		if fz.Violations > 1 {
			continue
		}
		min := fuzzShrink(opt, seed, rules)
		fz.MinSpec, fz.MinSeed = strings.Join(min, ","), seed
		if len(min) == 0 {
			fmt.Fprintf(out, "  violates with no faults at all; reproduce with: machsim -workload kv%s\n",
				fuzzFlagSuffix(opt))
			continue
		}
		fmt.Fprintf(out, "  minimal repro (shrunk from %d rules): machsim -workload kv -faults %d:%s%s\n",
			len(rules), seed, fz.MinSpec, fuzzFlagSuffix(opt))
	}
	return fz, nil
}

// fuzzFlagSuffix renders the campaign's build flags (schedules are
// flavor- and arch-dependent) and variant flags, so the printed repro
// command really reproduces the run.
func fuzzFlagSuffix(opt FuzzKVOptions) string {
	s := " -flavor " + opt.Flavor.FlagName() + " -arch " + opt.Arch.FlagName()
	if opt.Break {
		s += " -breakkv"
	}
	if opt.Overload.Enabled {
		s += " -overload " + opt.Overload.String()
	}
	if opt.BreakOverload {
		s += " -breakoverload"
	}
	return s
}

// dumpHistory writes one schedule's recorded client history — the
// checker's raw input — as a text artifact.
func dumpHistory(dir string, i int, seed uint64, rules []string, v fuzzVerdict) error {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %d seed=%d faults=%s\n", i, seed, strings.Join(rules, ","))
	fmt.Fprintf(&b, "verdict: %s; split brain: %s\n", v.res.Check, splitBrainStr(v.res.SplitBrain))
	for _, op := range v.res.History {
		fmt.Fprintf(&b, "%s\n", op)
	}
	name := filepath.Join(dir, fmt.Sprintf("history-%03d.txt", i))
	return os.WriteFile(name, []byte(b.String()), 0o644)
}
