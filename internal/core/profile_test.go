package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestProfileKeyIsTheName pins the continuation profile's key: two
// distinct continuations declared with one name share one profile row
// on a kernel, because a profile is keyed by the interned name, not by
// the continuation's identity. Profiles come out sorted by name, and a
// Reset leaves none.
func TestProfileKeyIsTheName(t *testing.T) {
	k := newKernel(t, true, 1)
	k.Obs = obs.NewRecorder(k.Clock, 0)
	wake := func(e *core.Env) { e.K.ThreadSyscallReturn(e, 1) }
	first := core.NewContinuation("profile_key_wait", wake)
	second := core.NewContinuation("profile_key_wait", wake)
	if first == second {
		t.Fatal("two declarations compare equal")
	}
	sleepWith := func(c *core.Continuation) core.Action {
		return core.Syscall("sleep", func(e *core.Env) {
			th := e.Cur()
			e.K.SetState(th, core.StateWaiting)
			e.K.Clock.Schedule(e.K.Clock.Now()+1000, func(any) { e.K.Setrun(th) }, nil)
			e.K.Block(e, stats.BlockInternal, c, wake, 64, "sleep")
		})
	}
	var threads []*core.Thread
	for i, c := range []*core.Continuation{first, second} {
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf([]string{"a", "b"}[i]), SpaceID: 1,
			Program: &script{actions: []core.Action{sleepWith(c)}}})
		threads = append(threads, th)
		start(k, th)
	}
	k.Run(0)
	for _, th := range threads {
		if th.State() != core.StateHalted {
			t.Fatalf("%v did not finish: %v", th, th.State())
		}
	}

	profs := k.Obs.Profiles()
	var rows []*obs.ContProfile
	for i, p := range profs {
		if i > 0 && profs[i-1].Name >= p.Name {
			t.Fatalf("Profiles not sorted by name: %q before %q", profs[i-1].Name, p.Name)
		}
		if p.Name == "profile_key_wait" {
			rows = append(rows, p)
		}
	}
	if len(rows) != 1 || rows[0].Blocks != 2 || rows[0] != k.Obs.Profile("profile_key_wait") {
		t.Fatalf("profile_key_wait rows = %+v, want one row with Blocks 2", rows)
	}
	if len(profs) < 2 {
		t.Fatalf("Profiles = %d rows, want thread_start's beside profile_key_wait's", len(profs))
	}

	k.Obs.Reset()
	if n := len(k.Obs.Profiles()); n != 0 {
		t.Fatalf("%d profiles survived Reset", n)
	}
}
