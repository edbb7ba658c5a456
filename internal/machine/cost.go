// Package machine models the hardware substrate the simulated kernel runs
// on: processor cost accounting, kernel stacks as explicit 4 KB resources,
// register contexts, and a simulated clock with an event queue.
//
// The paper's evaluation (Tables 3 and 4) is expressed in instructions,
// loads, stores and microseconds on two machines, the DECstation 3100 and
// the Toshiba 5200. Because a Go program cannot execute MIPS or i386
// kernel code, the machine package instead charges every simulated kernel
// operation with a Cost and converts accumulated costs to time with a
// per-architecture CostModel. Component costs that the paper measured
// directly (kernel entry/exit, stack handoff, context switch; Table 4) are
// treated as machine facts and used as model inputs; everything else is
// charged as the simulated kernel code actually executes, so path-level
// results emerge from which components a given kernel flavor runs.
package machine

import "fmt"

// Cost counts the work performed by a stretch of simulated kernel code in
// the units the paper reports: dynamic instructions, data loads and data
// stores. Costs are plain values; add them with Add.
type Cost struct {
	Instrs uint64 // dynamic instruction count
	Loads  uint64 // data cache read references
	Stores uint64 // data cache write references
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.Instrs += other.Instrs
	c.Loads += other.Loads
	c.Stores += other.Stores
}

// Scale returns c multiplied by n, e.g. the cost of copying n words given
// a per-word cost.
func (c Cost) Scale(n uint64) Cost {
	return Cost{Instrs: c.Instrs * n, Loads: c.Loads * n, Stores: c.Stores * n}
}

// Plus returns the sum of c and other without mutating either.
func (c Cost) Plus(other Cost) Cost {
	c.Add(other)
	return c
}

// IsZero reports whether the cost counts no work at all.
func (c Cost) IsZero() bool {
	return c.Instrs == 0 && c.Loads == 0 && c.Stores == 0
}

func (c Cost) String() string {
	return fmt.Sprintf("{instrs %d loads %d stores %d}", c.Instrs, c.Loads, c.Stores)
}

// Arch identifies one of the evaluation machines from the paper.
type Arch int

const (
	// ArchDS3100 is the DECstation 3100: MIPS R2000, 16.67 MHz, one
	// instruction per cycle barring cache misses and write stalls,
	// separate 64 KB direct-mapped I and D caches, 4-stage write buffer.
	ArchDS3100 Arch = iota
	// ArchToshiba5200 is the Toshiba 5200/100: Intel 80386, 20 MHz,
	// 32 KB combined cache. Its trap handler saves user registers on the
	// kernel stack rather than in a separate machine-dependent structure,
	// so a stack handoff must copy the register block between stacks
	// (the "performance bug" of the paper's footnote 2).
	ArchToshiba5200
)

func (a Arch) String() string {
	switch a {
	case ArchDS3100:
		return "DS3100"
	case ArchToshiba5200:
		return "Toshiba5200"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// archFlags are the architectures' command-line spellings (machsim -arch).
var archFlags = [...]string{ArchDS3100: "ds3100", ArchToshiba5200: "toshiba"}

// FlagName returns the architecture's command-line spelling.
func (a Arch) FlagName() string { return archFlags[a] }

// ParseArch reads a command-line architecture spelling.
func ParseArch(s string) (Arch, error) {
	for a, name := range archFlags {
		if name == s {
			return Arch(a), nil
		}
	}
	return 0, fmt.Errorf("unknown arch %q", s)
}

// CostModel converts Costs into simulated time for one architecture and
// supplies the machine-dependent component costs of control transfer.
// All times are derived, never measured from the host.
type CostModel struct {
	Arch Arch

	// MHz is the processor clock rate; simulated time in microseconds is
	// cycles / MHz.
	MHz float64

	// CPI is the base cycles per instruction (1.0 on the R2000; the 386
	// averages several cycles per instruction on kernel code).
	CPI float64

	// LoadCycles and StoreCycles are the average additional cycles per
	// data reference beyond the base CPI, folding in cache hit latency,
	// the occasional miss, and write-buffer stalls.
	LoadCycles  float64
	StoreCycles float64

	// RegsOnStack is the Toshiba 5200 quirk: saved user registers live on
	// the kernel stack, so StackHandoff must copy them out of the old
	// stack and onto the new one. When false (DS3100), registers live in
	// a separate machine-dependent save area and handoff is cheap.
	RegsOnStack bool

	// CalleeSavedRegs is the number of registers the calling convention
	// requires a continuation-based kernel to save eagerly at system call
	// entry (9 on the R2000). It is the source of MK40's slightly more
	// expensive entry/exit path (Table 4 discussion).
	CalleeSavedRegs int

	// UserRegs is the size of the full user register frame saved on
	// exceptions and interrupts, in 32-bit words.
	UserRegs int
}

// Cycles returns the simulated cycle count for a Cost under this model.
func (m *CostModel) Cycles(c Cost) float64 {
	return float64(c.Instrs)*m.CPI +
		float64(c.Loads)*m.LoadCycles +
		float64(c.Stores)*m.StoreCycles
}

// TimeMicros converts a Cost to simulated microseconds.
func (m *CostModel) TimeMicros(c Cost) float64 {
	return m.Cycles(c) / m.MHz
}

// NewCostModel returns the model for the given architecture with the
// parameters used throughout the reproduction. The DS3100 numbers are
// anchored so that the Table 4 component costs convert to latencies
// consistent with Table 3; the Toshiba model uses a higher CPI typical of
// a 20 MHz 386 running kernel code.
func NewCostModel(a Arch) *CostModel {
	switch a {
	case ArchDS3100:
		return &CostModel{
			Arch:            ArchDS3100,
			MHz:             16.67,
			CPI:             1.0,
			LoadCycles:      1.5,
			StoreCycles:     1.0,
			RegsOnStack:     false,
			CalleeSavedRegs: 9,
			UserRegs:        32,
		}
	case ArchToshiba5200:
		return &CostModel{
			Arch:            ArchToshiba5200,
			MHz:             20.0,
			CPI:             7.2,
			LoadCycles:      3.5,
			StoreCycles:     3.0,
			RegsOnStack:     true,
			CalleeSavedRegs: 4,
			UserRegs:        17,
		}
	default:
		panic(fmt.Sprintf("machine: unknown architecture %v", a))
	}
}

// WordCopyCost is the per-32-bit-word cost of a memory-to-memory copy
// (load, store, and loop overhead), used for message bodies and the
// Toshiba register-block copy.
var WordCopyCost = Cost{Instrs: 3, Loads: 1, Stores: 1}

// CopyWords returns the cost of copying n 32-bit words.
func CopyWords(n int) Cost {
	if n < 0 {
		panic("machine: negative copy length")
	}
	return WordCopyCost.Scale(uint64(n))
}

// CopyBytes returns the cost of copying n bytes, rounded up to words.
func CopyBytes(n int) Cost {
	if n < 0 {
		panic("machine: negative copy length")
	}
	return CopyWords((n + 3) / 4)
}
