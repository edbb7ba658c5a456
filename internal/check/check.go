// Package check verifies KV client histories against the register model:
// a Wing-Gong style linearizability search per key, plus the split-brain
// assertion over the replicas' durable ack logs. The simulator is
// deterministic, so a history that fails here fails identically on every
// rerun of the same seed and fault spec — which is what lets the fuzzer
// print a reproducing spec instead of a flaky counterexample.
//
// The KV shards are independent registers (puts and gets of one key
// never read another), so linearizability is checked per key and the
// whole history passes iff every key does (P-compositionality). Each
// key's search is a memoized DFS over which operations have been
// linearized, bounded to 64 ops per key by a uint64 mask.
package check

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/machine"
)

// OpKind is the register operation type.
type OpKind int

const (
	OpGet OpKind = iota
	OpPut
)

func (k OpKind) String() string {
	if k == OpPut {
		return "put"
	}
	return "get"
}

// Op is one client operation as the caller experienced it: invocation
// and return stamped with simulated time. An op with Ok=false never
// received an acknowledgement (timeout / abandoned): a put in that state
// is indeterminate — it may have taken effect or not — and a get in that
// state constrains nothing.
type Op struct {
	Client int
	Kind   OpKind
	Key    uint64
	// Val is the value written (put) or observed (get, valid when Found).
	Val uint64
	// Found reports whether a get saw the key at all; a get of a
	// never-written key legitimately returns Found=false.
	Found  bool
	Invoke machine.Time
	Return machine.Time
	Ok     bool
	// Rejected marks a definite no-op: every attempt was refused by a
	// typed overload fast-fail (expired / admission-rejected / breaker
	// open) before any tier applied it, or never sent at all. Unlike a
	// plain Ok=false put, a rejected put cannot have taken effect, so
	// the checker excludes the op from the history entirely. A tier
	// that services work and then claims it was shed breaks exactly
	// this contract — and the checker flags the phantom write.
	Rejected bool
}

func (o Op) String() string {
	body := fmt.Sprintf("%v(%d)", o.Kind, o.Key)
	if o.Kind == OpPut {
		body = fmt.Sprintf("put(%d)=%d", o.Key, o.Val)
	} else if o.Ok {
		if o.Found {
			body = fmt.Sprintf("get(%d)->%d", o.Key, o.Val)
		} else {
			body = fmt.Sprintf("get(%d)->absent", o.Key)
		}
	}
	status := "ok"
	if o.Rejected {
		status = "rejected"
	} else if !o.Ok {
		status = "indet"
	}
	return fmt.Sprintf("c%d %s [%d,%d] %s", o.Client, body,
		uint64(o.Invoke), uint64(o.Return), status)
}

// Violation names one key whose operations admit no linearization.
type Violation struct {
	Key    uint64
	Reason string
	// Ops is the key's sub-history, for the report.
	Ops []Op
}

// Result is the outcome of a history check.
type Result struct {
	Linearizable bool
	Violations   []Violation
	Keys         int // keys checked
	Ops          int // ops considered (indeterminate gets excluded)
	Rejected     int // definite no-ops excluded from every key's history
	SkippedKeys  int // keys over the 64-op search bound (never counts as pass)
}

func (r Result) String() string {
	if r.Linearizable {
		return fmt.Sprintf("linearizable: %d ops over %d keys", r.Ops, r.Keys)
	}
	if len(r.Violations) == 0 {
		return fmt.Sprintf("inconclusive: %d keys over the search bound", r.SkippedKeys)
	}
	return fmt.Sprintf("NOT linearizable: %d violating keys (first: key %d: %s)",
		len(r.Violations), r.Violations[0].Key, r.Violations[0].Reason)
}

// maxKeyOps bounds the per-key search so linearized sets fit a uint64.
const maxKeyOps = 64

// Linearizable checks a whole history against the per-key register
// model. Rejected ops are definite no-ops and excluded outright;
// indeterminate gets are dropped (they constrain nothing);
// indeterminate puts participate as maybe-applied writes.
func Linearizable(h []Op) Result {
	perKey := make(map[uint64][]Op)
	var res Result
	for _, o := range h {
		if o.Rejected {
			res.Rejected++
			continue
		}
		if o.Kind == OpGet && !o.Ok {
			continue
		}
		res.Ops++
		perKey[o.Key] = append(perKey[o.Key], o)
	}
	keys := make([]uint64, 0, len(perKey))
	for k := range perKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	res.Linearizable = true
	for _, k := range keys {
		ops := perKey[k]
		res.Keys++
		if len(ops) > maxKeyOps {
			res.SkippedKeys++
			res.Linearizable = false
			res.Violations = append(res.Violations, Violation{Key: k,
				Reason: fmt.Sprintf("%d ops exceed the %d-op search bound", len(ops), maxKeyOps)})
			continue
		}
		if !linearizableKey(ops) {
			res.Linearizable = false
			res.Violations = append(res.Violations, Violation{Key: k,
				Reason: fmt.Sprintf("no valid linearization of %d ops", len(ops)),
				Ops:    ops})
		}
	}
	return res
}

// keyState is one DFS node: which ops are linearized and which put wrote
// the register's current value (-1: never written).
type keyState struct {
	mask uint64
	last int
}

// linearizableKey searches for a legal total order of one key's ops.
// Sorting by invocation keeps the DFS visiting candidates in a
// deterministic order; correctness does not depend on it.
func linearizableKey(ops []Op) bool {
	slices.SortStableFunc(ops, func(a, b Op) int {
		if c := cmp.Compare(a.Invoke, b.Invoke); c != 0 {
			return c
		}
		return cmp.Compare(a.Client, b.Client)
	})
	// needMask are the completed ops: all must be linearized for the
	// history to pass. Indeterminate puts may linearize or vanish.
	var needMask uint64
	for i, o := range ops {
		if o.Ok {
			needMask |= 1 << uint(i)
		}
	}
	seen := make(map[keyState]bool)
	var dfs func(st keyState) bool
	dfs = func(st keyState) bool {
		if st.mask&needMask == needMask {
			return true
		}
		if seen[st] {
			return false
		}
		seen[st] = true
		for i, o := range ops {
			bit := uint64(1) << uint(i)
			if st.mask&bit != 0 {
				continue
			}
			// Minimality: o can be next only if no other unlinearized
			// completed op returned before o invoked — otherwise that op's
			// whole duration precedes o and must come first. Indeterminate
			// puts have no return and never block anyone.
			minimal := true
			for j, p := range ops {
				if j == i || st.mask&(1<<uint(j)) != 0 || !p.Ok {
					continue
				}
				if p.Return < o.Invoke {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
			if o.Kind == OpGet {
				// The register's current value must be what the get saw.
				if st.last < 0 {
					if o.Found {
						continue
					}
				} else if !o.Found || ops[st.last].Val != o.Val {
					continue
				}
				if dfs(keyState{mask: st.mask | bit, last: st.last}) {
					return true
				}
				continue
			}
			if dfs(keyState{mask: st.mask | bit, last: i}) {
				return true
			}
		}
		return false
	}
	return dfs(keyState{mask: 0, last: -1})
}

// AckKey identifies one (group, epoch) pair under which a replica rank
// acknowledged client writes; the svc replica's durable ack log uses
// this type directly.
type AckKey struct {
	Group int
	Epoch uint64
}

// SplitBrain intersects the per-rank ack logs: any (group, epoch)
// acknowledged by more than one rank means two primaries held the same
// lease — the exact failure epoch fencing exists to prevent. Returns the
// offending keys sorted, empty when fencing held.
func SplitBrain(logs []map[AckKey]uint64) []AckKey {
	count := make(map[AckKey]int)
	for _, log := range logs {
		for k, n := range log {
			if n > 0 {
				count[k]++
			}
		}
	}
	var bad []AckKey
	for k, ranks := range count {
		if ranks > 1 {
			bad = append(bad, k)
		}
	}
	slices.SortFunc(bad, func(a, b AckKey) int {
		if c := cmp.Compare(a.Group, b.Group); c != 0 {
			return c
		}
		return cmp.Compare(a.Epoch, b.Epoch)
	})
	return bad
}
