package machine

// Context is the machine-dependent register save area for a thread: the
// state the trap handler preserves at kernel entry and the state
// switch_context saves and restores. The simulator gives registers
// symbolic roles rather than modelling a full ISA, and keeps only the
// one register a simulated program reads back: what matters to the paper
// is where this state lives (a separate save area in MK40, the kernel
// stack in MK32/Toshiba) and what saving it costs, which the cost model
// charges by MDStateBytes, not by this record's size.
type Context struct {
	// RetVal carries a system call's return code back to user space.
	RetVal uint64
}

// MDStateBytes is the size of the separate machine-dependent thread save
// area in an MK40-style kernel on the DS3100 (Table 5: 206 bytes — the
// full user register frame plus trap bookkeeping). In MK32 this state
// lives on the thread's dedicated kernel stack and costs no extra bytes.
const MDStateBytes = 206

// Accumulator gathers the Costs charged by simulated kernel code and
// moves the simulated clock forward by their duration, so event timing
// reflects kernel execution time.
type Accumulator struct {
	model *CostModel
	clock *Clock

	total Cost

	// TimeScale, when non-nil, multiplies the simulated duration of every
	// charge — the gray-failure hook: a slowdown factor > 1 makes the
	// machine compute slower without being down. Consulted per charge so a
	// scheduled slowdown window can start and end mid-run.
	TimeScale func() float64
}

// NewAccumulator returns an accumulator charging against model and
// advancing clock.
func NewAccumulator(model *CostModel, clock *Clock) *Accumulator {
	return &Accumulator{model: model, clock: clock}
}

// Charge records that the named work was performed.
func (a *Accumulator) Charge(c Cost) {
	a.total.Add(c)
	a.clock.AdvanceMicros(a.ScaleMicros(a.model.TimeMicros(c)))
}

// ScaleMicros applies the gray-failure time scale to a simulated
// duration; identity when no scale is installed. Exposed for the one
// charge path that bypasses Charge (user-mode CPU bursts, which are
// pre-converted to time).
func (a *Accumulator) ScaleMicros(us float64) float64 {
	if a.TimeScale == nil {
		return us
	}
	return us * a.TimeScale()
}

// Total returns the cumulative cost since creation.
func (a *Accumulator) Total() Cost { return a.total }
