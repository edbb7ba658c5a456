package machine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestPool() (*Clock, *StackPool) {
	c := NewClock()
	return c, NewStackPool(c, 116)
}

func TestStackAllocateFree(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	if s.Owner() != OwnerTransit {
		t.Fatalf("fresh stack owner = %v", s.Owner())
	}
	if p.InUse() != 1 || p.TotalStacks() != 1 {
		t.Fatalf("InUse=%d Total=%d", p.InUse(), p.TotalStacks())
	}
	p.Free(s)
	if s.Owner() != OwnerFree || p.InUse() != 0 {
		t.Fatalf("after free: owner=%v InUse=%d", s.Owner(), p.InUse())
	}
}

func TestStackReuse(t *testing.T) {
	_, p := newTestPool()
	s1 := p.Allocate()
	p.Free(s1)
	s2 := p.Allocate()
	if s1 != s2 {
		t.Fatal("pool did not reuse the freed stack")
	}
	if p.TotalStacks() != 1 {
		t.Fatalf("TotalStacks = %d", p.TotalStacks())
	}
}

func TestStackDoubleFreePanics(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	p.Free(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.Free(s)
}

func TestFreeWithLiveFramesPanics(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	s.PushFrame(Frame{Resume: "resume", Bytes: 64, Label: "blocked"})
	defer func() {
		if recover() == nil {
			t.Fatal("freeing a stack with frames did not panic")
		}
	}()
	p.Free(s)
}

func TestStackGrowShrinkHighWater(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	s.Grow(100)
	s.Grow(200)
	s.Shrink(150)
	if s.Used() != 150 {
		t.Fatalf("Used = %d", s.Used())
	}
	if s.MaxUsed() != 300 {
		t.Fatalf("MaxUsed = %d", s.MaxUsed())
	}
}

func TestStackOverflowPanics(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	s.Grow(KernelStackSize + 1)
}

func TestStackBadShrinkPanics(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	s.Grow(10)
	defer func() {
		if recover() == nil {
			t.Fatal("over-shrink did not panic")
		}
	}()
	s.Shrink(11)
}

func TestFrameLIFO(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	s.PushFrame(Frame{Resume: "resume", Bytes: 16, Label: "outer"})
	s.PushFrame(Frame{Resume: "resume", Bytes: 32, Label: "inner"})
	if s.FrameCount() != 2 || s.Used() != 48 {
		t.Fatalf("frames=%d used=%d", s.FrameCount(), s.Used())
	}
	if f := s.PopFrame(); f.Label != "inner" {
		t.Fatalf("popped %q first", f.Label)
	}
	if f := s.PopFrame(); f.Label != "outer" {
		t.Fatalf("popped %q second", f.Label)
	}
	if s.Used() != 0 {
		t.Fatalf("used=%d after popping all", s.Used())
	}
}

func TestPopEmptyPanics(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	defer func() {
		if recover() == nil {
			t.Fatal("pop on empty stack did not panic")
		}
	}()
	s.PopFrame()
}

func TestPushFrameWithoutResumePanics(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	defer func() {
		if recover() == nil {
			t.Fatal("frame without resume did not panic")
		}
	}()
	s.PushFrame(Frame{Bytes: 8})
}

func TestAllocateResetsRecycledStack(t *testing.T) {
	_, p := newTestPool()
	s := p.Allocate()
	s.PushFrame(Frame{Resume: "resume", Bytes: 40})
	s.PopFrame()
	s.Grow(80)
	s.Shrink(80)
	p.Free(s)
	s2 := p.Allocate()
	if s2.Used() != 0 || s2.MaxUsed() != 0 || s2.FrameCount() != 0 {
		t.Fatalf("recycled stack not reset: used=%d max=%d frames=%d",
			s2.Used(), s2.MaxUsed(), s2.FrameCount())
	}
}

func TestHighWaterMark(t *testing.T) {
	_, p := newTestPool()
	a := p.Allocate()
	b := p.Allocate()
	c := p.Allocate()
	p.Free(b)
	p.Free(c)
	if p.MaxInUse() != 3 {
		t.Fatalf("MaxInUse = %d, want 3", p.MaxInUse())
	}
	if p.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", p.InUse())
	}
	p.Free(a)
	if p.Allocs() != 3 || p.Frees() != 3 {
		t.Fatalf("allocs=%d frees=%d", p.Allocs(), p.Frees())
	}
}

func TestAverageInUseTimeWeighted(t *testing.T) {
	clock, p := newTestPool()
	s := p.Allocate()
	clock.Advance(1000) // 1 stack for 1000ns
	s2 := p.Allocate()
	clock.Advance(1000) // 2 stacks for 1000ns
	p.Free(s2)
	p.Free(s)
	avg := p.AverageInUse()
	if avg < 1.49 || avg > 1.51 {
		t.Fatalf("AverageInUse = %v, want 1.5", avg)
	}
}

func TestAverageInUseNoTimeElapsed(t *testing.T) {
	_, p := newTestPool()
	p.Allocate()
	if avg := p.AverageInUse(); avg != 1 {
		t.Fatalf("AverageInUse with no elapsed time = %v, want current count", avg)
	}
}

// Property: for any valid sequence of allocate/free operations, the pool's
// accounting balances — inUse equals allocs-frees, every live stack has a
// single owner, and free stacks are exactly the pool's free list.
func TestStackPoolAccountingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		clock, p := newTestPool()
		var held []*Stack
		for _, alloc := range ops {
			clock.Advance(7)
			if alloc || len(held) == 0 {
				held = append(held, p.Allocate())
			} else {
				s := held[len(held)-1]
				held = held[:len(held)-1]
				p.Free(s)
			}
		}
		if p.InUse() != len(held) {
			return false
		}
		if uint64(p.InUse()) != p.Allocs()-p.Frees() {
			return false
		}
		for _, s := range held {
			if s.Owner() == OwnerFree {
				return false
			}
		}
		for _, s := range p.free {
			if s.Owner() != OwnerFree {
				return false
			}
		}
		return len(p.free) == p.TotalStacks()-p.InUse()
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStackOwnerString(t *testing.T) {
	if OwnerFree.String() != "free" || OwnerThread.String() != "thread" || OwnerTransit.String() != "transit" {
		t.Fatal("owner strings")
	}
	if StackOwner(9).String() != "StackOwner(9)" {
		t.Fatal("unknown owner string")
	}
}
