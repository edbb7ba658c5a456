package experiments

import (
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/workload"
)

// SweepRow is one point of the message-size sweep: round-trip RPC
// latency carrying a body of the given size, inline-copied versus
// transferred out-of-line by copy-on-write remapping.
type SweepRow struct {
	SizeBytes int
	InlineUs  float64
	OOLUs     float64
}

// rpcWithSize measures the round trip for one (size, mode) point.
func rpcWithSize(flavor kern.Flavor, arch machine.Arch, size int, ool bool, iters int) float64 {
	sys := kern.New(kern.Config{Flavor: flavor, Arch: arch, DisableCallout: true})
	st := sys.NewTask("server")
	ct := sys.NewTask("client")
	sp := sys.IPC.NewPort("service")
	rp := sys.IPC.NewPort("reply")
	warmup := 5
	srv := workload.NewEchoServer(sys, sp)
	cli := &PingClient{
		sys: sys, server: sp, reply: rp,
		size: size, ool: ool, rpcs: iters + warmup, warmup: warmup,
	}
	sys.Start(st.NewThread("srv", srv, 20))
	sys.Start(ct.NewThread("cli", cli, 10))
	sys.Run(0)
	return (cli.MarkEnd - cli.MarkStart).Micros() / float64(iters)
}

// MessageSizeSweep measures RPC round-trip latency against message size
// for inline and out-of-line transfer on MK40/DS3100: the crossover
// figure for Mach's large-message path.
func MessageSizeSweep(sizes []int, iters int) []SweepRow {
	if len(sizes) == 0 {
		sizes = []int{64, 256, 1024, 4096, 16384, 65536}
	}
	if iters <= 0 {
		iters = 100
	}
	rows := make([]SweepRow, 0, len(sizes))
	for _, size := range sizes {
		rows = append(rows, SweepRow{
			SizeBytes: size,
			InlineUs:  rpcWithSize(kern.MK40, machine.ArchDS3100, size, false, iters),
			OOLUs:     rpcWithSize(kern.MK40, machine.ArchDS3100, size, true, iters),
		})
	}
	return rows
}
