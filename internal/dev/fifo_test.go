package dev

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSlice runs seeded random pushes and pops against a
// plain slice queue: same order, same live entries, popped slots
// cleared, and a queue that drains between bursts keeps one buffer.
func TestFIFOMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q fifo[*int]
		var ref []*int
		for op := 0; op < 2000; op++ {
			if len(ref) == 0 || rng.Intn(3) > 0 {
				v := new(int)
				*v = op
				q.push(v)
				ref = append(ref, v)
			} else {
				got := q.pop()
				if got != ref[0] {
					t.Fatalf("seed %d op %d: popped %d, want %d", seed, op, *got, *ref[0])
				}
				ref = ref[1:]
			}
			live := q.live()
			if q.size() != len(ref) || len(live) != len(ref) {
				t.Fatalf("seed %d op %d: size %d, %d live, want %d", seed, op, q.size(), len(live), len(ref))
			}
			for i := range live {
				if live[i] != ref[i] {
					t.Fatalf("seed %d op %d: live[%d] differs", seed, op, i)
				}
			}
			for i := 0; i < q.head; i++ {
				if q.buf[i] != nil {
					t.Fatalf("seed %d op %d: popped slot %d still holds %d", seed, op, i, *q.buf[i])
				}
			}
		}
	}

	var q fifo[int]
	for burst := 0; burst < 100; burst++ {
		for i := 0; i < 8; i++ {
			q.push(i)
		}
		for q.size() > 0 {
			q.pop()
		}
	}
	if cap(q.buf) > 8 || q.head != 0 {
		t.Fatalf("drained queue: cap %d head %d, want one 8-slot buffer rewound", cap(q.buf), q.head)
	}
	// A steady one-in, one-out queue slides instead of growing.
	q.push(0)
	for i := 1; i < 1000; i++ {
		q.push(i)
		if got := q.pop(); got != i-1 {
			t.Fatalf("popped %d, want %d", got, i-1)
		}
	}
	if cap(q.buf) > 8 {
		t.Fatalf("steady queue grew to %d slots", cap(q.buf))
	}
}
