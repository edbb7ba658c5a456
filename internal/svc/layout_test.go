package svc

import (
	"testing"
	"unsafe"

	"repro/internal/core"
)

// TestWireLayout pins what every service message costs the host: the
// fields an op, reply, replicate or renewal uses, at most 112 bytes, with
// a rejoin's five slices behind one pointer. The simulated size stays
// apart from it: wireBytes charges 160 bytes plus the rejoin payload.
func TestWireLayout(t *testing.T) {
	if n := unsafe.Sizeof(Wire{}); n > 112 {
		t.Errorf("Wire is %d bytes, want at most 112", n)
	}
	rj := &Rejoin{Epochs: []uint64{1, 2}, Leaders: []int{0, 1}, Seqs: []uint64{3, 4},
		Grants: []GroupGrant{{Group: 1}}, Snap: []Entry{{Key: 1}, {Key: 2}}}
	for _, c := range []struct {
		w    *Wire
		want int
	}{
		{&Wire{Kind: MsgClientOp, Key: 7}, 160},
		{&Wire{Kind: MsgRejoin, Rejoin: rj}, 160 + 8*6 + 16 + 24*2},
	} {
		if got := wireBytes(c.w); got != c.want {
			t.Errorf("wireBytes(%v) = %d, want %d", c.w.Kind, got, c.want)
		}
	}
}

// TestCallerReplyPortNames checks the reply port a caller names from its
// shared base and index for each caller family (kv, storm, svcgraph and
// the cache workers): the caller's name followed by "-reply", in every
// incarnation.
func TestCallerReplyPortNames(t *testing.T) {
	sys := bootMachine()
	for _, c := range []struct {
		base string
		idx  int
		want string
	}{
		{"kv-cli", 0, "kv-cli0-reply"},
		{"kv-cli-b", 3, "kv-cli-b3-reply"},
		{"storm", 1234, "storm1234-reply"},
		{"fe", 7, "fe7-reply"},
		{"cache-w", 2, "cache-w2-reply"},
	} {
		cli := &Caller{Sys: sys, Name: core.IndexedName(c.base, c.idx)}
		for range 2 {
			cli.Reset(sys)
			if got := cli.reply.Name().String(); got != c.want {
				t.Errorf("%s%d's reply port is %q, want %q", c.base, c.idx, got, c.want)
			}
		}
	}
}
