package core

import (
	"testing"
	"unsafe"
)

func TestNewContinuationValidation(t *testing.T) {
	if c := NewContinuation("x", func(*Env) {}); c.Name() != "x" {
		t.Fatalf("Name = %q", c.Name())
	}
	for _, bad := range []struct {
		name string
		fn   func(*Env)
	}{{"", func(*Env) {}}, {"x", nil}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewContinuation(%q, fn=%v) did not panic", bad.name, bad.fn != nil)
				}
			}()
			NewContinuation(bad.name, bad.fn)
		}()
	}
}

func TestContinuationNilName(t *testing.T) {
	var c *Continuation
	if c.Name() != "<none>" {
		t.Fatalf("nil Name = %q", c.Name())
	}
}

func TestContinuationIdentity(t *testing.T) {
	a := NewContinuation("same", func(*Env) {})
	b := NewContinuation("same", func(*Env) {})
	if a == b {
		t.Fatal("distinct continuations compare equal")
	}
	c := a
	if c != a {
		t.Fatal("identical continuations compare unequal")
	}
}

func TestScratchWords(t *testing.T) {
	var s Scratch
	s.PutWord(0, 7)
	s.PutWord(6, 0xdeadbeef)
	if s.Word(0) != 7 || s.Word(6) != 0xdeadbeef {
		t.Fatal("scratch word round trip failed")
	}
	if s.Used() != 2 {
		t.Fatalf("Used = %d", s.Used())
	}
}

// TestScratchRefs pins the area's one reference: it round-trips, a
// second SetRef replaces the first, and it counts as one of the seven
// words however often it is set.
func TestScratchRefs(t *testing.T) {
	var s Scratch
	type msg struct{ n int }
	m, m2 := &msg{n: 3}, &msg{n: 4}
	s.SetRef(m)
	got, ok := s.Ref().(*msg)
	if !ok || got != m {
		t.Fatal("scratch ref round trip failed")
	}
	s.SetRef(m2)
	if got, _ := s.Ref().(*msg); got != m2 {
		t.Fatal("second SetRef did not replace the first")
	}
	if s.Used() != 1 {
		t.Fatalf("Used = %d, want 1", s.Used())
	}
}

// TestScratchOverwriteChangesKind pins that the words and the reference
// are independent: rewriting a word keeps the reference, a new reference
// may be of another kind, and neither is counted twice.
func TestScratchOverwriteChangesKind(t *testing.T) {
	var s Scratch
	s.SetRef("obj")
	s.PutWord(1, 8)
	s.PutWord(1, 9)
	if s.Ref() != "obj" {
		t.Fatal("PutWord disturbed the reference")
	}
	s.SetRef(9)
	if s.Ref() != 9 {
		t.Fatal("reference did not change kind")
	}
	if s.Word(1) != 9 {
		t.Fatal("word lost")
	}
	if s.Used() != 2 {
		t.Fatalf("Used = %d, want 2", s.Used())
	}
}

// TestScratchBoundsEnforced pins the paper's limit: seven 4-byte words
// (28 bytes), one of which a reference fills. Out-of-range words and an
// unset reference panic, and seven words plus the reference read as one
// word too many, which Kernel.Validate reports.
func TestScratchBoundsEnforced(t *testing.T) {
	if ScratchBytes != 28 {
		t.Fatalf("ScratchBytes = %d, want 28", ScratchBytes)
	}
	var s Scratch
	for _, f := range []func(){
		func() { s.PutWord(7, 1) },
		func() { s.PutWord(-1, 1) },
		func() { s.Word(7) },
		func() { s.Word(-1) },
		func() { s.Ref() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range or unset scratch access did not panic")
				}
			}()
			f()
		}()
	}
	for i := 0; i < ScratchSlots; i++ {
		s.PutWord(i, uint32(i))
	}
	if s.Used() != ScratchSlots {
		t.Fatalf("Used with every word = %d, want %d", s.Used(), ScratchSlots)
	}
	s.SetRef(&s)
	if s.Used() != ScratchSlots+1 {
		t.Fatalf("Used with every word and the reference = %d, want %d", s.Used(), ScratchSlots+1)
	}
}

func TestScratchReadBeforeWritePanics(t *testing.T) {
	var s Scratch
	defer func() {
		if recover() == nil {
			t.Fatal("read of unwritten slot did not panic")
		}
	}()
	s.Word(3)
}

// TestScratchReset pins that Reset drops the words and the reference.
func TestScratchReset(t *testing.T) {
	var s Scratch
	s.PutWord(0, 1)
	s.SetRef("r")
	s.Reset()
	if s.Used() != 0 {
		t.Fatalf("Used after Reset = %d", s.Used())
	}
	if s.ref != nil {
		t.Fatal("Reset kept the reference")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reference read after Reset did not panic")
		}
	}()
	s.Ref()
}

// TestThreadLayout pins the host record a blocked thread costs: Scratch
// is seven words and one reference (at most 48 bytes), and Thread, with
// its one-byte states and flags packed together and a register save area
// of the one register programs read, at most 232 bytes.
func TestThreadLayout(t *testing.T) {
	if n := unsafe.Sizeof(Scratch{}); n > 48 {
		t.Errorf("Scratch is %d bytes, want at most 48", n)
	}
	if n := unsafe.Sizeof(Thread{}); n > 232 {
		t.Errorf("Thread is %d bytes, want at most 232", n)
	}
}
