// NetRPC is the cross-machine workload: two simulated machines joined by
// a NIC pair, a client on machine A issuing RPCs to an echo server on
// machine B through the in-kernel netmsg forwarding threads, and a
// user-level disk reader on each machine keeping the paging disk's
// request queue busy with device_read calls. Every continuation mechanism
// the device subsystem adds shows up here: device-I/O blocks that discard
// stacks, interrupts taken on the current stack, io_done handoffs and
// recognitions, and netmsg deliveries that hand off straight into a
// waiting receiver's mach_msg_continue.
package workload

import (
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
)

// NetRPCSpec sizes the cross-machine workload.
type NetRPCSpec struct {
	// RPCs is how many echo round trips the client completes.
	RPCs int
	// MsgBytes is the request/reply payload size.
	MsgBytes int
	// DiskReads is how many device_read calls each machine's disk reader
	// issues (0 disables the readers); DiskReadBytes the transfer size.
	DiskReads     int
	DiskReadBytes int
	// DiskLatency overrides the paging disk service time when nonzero.
	DiskLatency machine.Duration

	// FaultSpec, when nonzero, seeds a deterministic fault plan on each
	// machine from FaultSeed (machine B uses FaultSeed+1 so the two draw
	// independent streams). Wire faults switch the netmsg threads to the
	// reliable seq/ack protocol.
	FaultSeed uint64
	FaultSpec fault.Spec

	// Pairs is the number of client/server machine pairs in the cluster
	// (default 1): the cluster simulates 2*Pairs machines. Pair i's
	// machines draw fault seeds FaultSeed+2i and FaultSeed+2i+1, so pair 0
	// matches the historical two-machine run exactly.
	Pairs int

	// Clients is the number of client threads per client machine (default
	// 1), each completing RPCs round trips. More clients keep more RPCs in
	// flight per wire-latency window, raising per-machine work per
	// horizon round.
	Clients int

	// Failover boots the HA topology instead of client/server pairs: four
	// machines — client, primary server, replica server, second client —
	// where each client is wired to both servers, every link runs the
	// reliable protocol, and the clients issue RPCs with a receive timeout
	// so they can fail over to the replica when the primary goes silent
	// (and fail back after its warm reboot). FaultSpec.Crashes machine
	// indices name machines in that order.
	Failover bool

	// Parallel runs the cluster's horizon rounds with one goroutine per
	// machine. Results are byte-identical to the sequential rounds.
	Parallel bool

	// DebugChecks arms the kernel invariant sweep after every dispatch
	// on both machines.
	DebugChecks bool

	// Observe installs an obs.Recorder retaining obs.DefaultCapacity
	// events on each machine before any thread starts, so the whole run
	// is traced and profiled. The recorders are reachable afterwards as
	// Client.K.Obs and Server.K.Obs.
	Observe bool
}

// DefaultNetRPC returns the standard two-machine echo workload.
func DefaultNetRPC() NetRPCSpec {
	return NetRPCSpec{
		RPCs:          50,
		MsgBytes:      256,
		DiskReads:     30,
		DiskReadBytes: 4096,
		// A fast disk keeps the readers and the RPC stream interleaved on
		// the same timescale.
		DiskLatency: machine.Duration(2 * 1000 * 1000), // 2 ms
	}
}

// LossyNetRPC is the robustness acceptance workload: the standard echo
// run under 10% packet loss plus occasional device failures and latency
// spikes, with the invariant checker armed throughout. Every RPC must
// still complete — the reliability protocol and the device retry path
// absorb the faults.
func LossyNetRPC() NetRPCSpec {
	s := DefaultNetRPC()
	s.FaultSeed = 1991 // the paper's year; any seed works
	s.FaultSpec = fault.Spec{
		DropProb:        0.10,
		DeviceFailProb:  0.05,
		DeviceSlowProb:  0.05,
		DeviceSlowExtra: machine.Duration(1 * 1000 * 1000), // 1 ms
	}
	s.DebugChecks = true
	return s
}

// NetRPCResult reports one cross-machine run.
type NetRPCResult struct {
	// Client and Server are pair 0's machines, A and B.
	Client *kern.System
	Server *kern.System

	// Machines lists every booted machine, client/server interleaved
	// (pair i occupies indices 2i and 2i+1).
	Machines []*kern.System

	// Completed is the echo round trips finished across all clients;
	// DiskReadsDone the device_read calls completed on pair 0's machines
	// (client, server order).
	Completed     int
	DiskReadsDone [2]int

	// Elapsed is the client machine's simulated time for the whole run.
	Elapsed machine.Duration

	// Steps is the total cluster dispatcher steps taken.
	Steps uint64

	// Recovery is the crash/failover accounting, populated on every run
	// (all zeros when no crashes were injected).
	Recovery RecoveryStats

	topo topology
}

// netClient issues echo RPCs to the remote machine via a proxy port.
type netClient struct {
	sys   *kern.System
	proxy *ipc.Port
	reply *ipc.Port
	bytes int
	rpcs  int
	done  int

	rpcAct core.Action
}

func (c *netClient) Next(e *core.Env, t *core.Thread) core.Action {
	if c.rpcAct.Invoke == nil {
		c.rpcAct = core.Syscall("mach_msg(net-rpc)", func(e *core.Env) {
			req := c.sys.IPC.NewMessage(1, c.bytes, nil, c.reply)
			c.sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send: req, SendTo: c.proxy, ReceiveFrom: c.reply,
			})
		})
	}
	if m := c.sys.IPC.Received(t); m != nil {
		c.done++
		c.sys.IPC.FreeMessage(m)
	}
	if c.done >= c.rpcs {
		return core.Exit()
	}
	return c.rpcAct
}

// diskReader issues back-to-back device_read calls against the paging
// disk, so BlockDeviceIO rows (and queueing against VM page traffic)
// come from a real user thread.
type diskReader struct {
	sys   *kern.System
	disk  *dev.Device
	bytes int
	reads int
	done  int

	readAct core.Action
}

func (r *diskReader) Next(e *core.Env, t *core.Thread) core.Action {
	if r.done >= r.reads {
		return core.Exit()
	}
	r.done++
	if r.readAct.Invoke == nil {
		r.readAct = core.Syscall("device_read", func(e *core.Env) {
			d := r.sys.Dev.Open(e, r.disk.Name)
			r.sys.Dev.DeviceRead(e, d, r.bytes)
		})
	}
	return r.readAct
}

// RunNetRPC boots the spec's cluster — Pairs client/server pairs, or
// the four-machine HA topology with Failover — starts its threads, and
// drives it until every client has completed its RPCs and the disk
// readers have drained (or no machine can progress). Fully
// deterministic: with the same spec the run is byte-identical regardless
// of spec.Parallel or GOMAXPROCS.
func RunNetRPC(flavor kern.Flavor, arch machine.Arch, spec NetRPCSpec) *NetRPCResult {
	c := boot(netRPCCluster(flavor, arch, spec))
	var clis []*netClient
	var haClis []*haClient
	if spec.Failover {
		haClis = installHA(c.machines, spec)
	} else {
		clis = installPairs(c.machines, spec)
	}
	readers := startDiskReaders(c.machines, spec)

	res := &NetRPCResult{Client: c.machines[0], Server: c.machines[1], Machines: c.machines, topo: c.spec.topo}
	res.Steps, res.Elapsed = c.drive()
	for _, cli := range clis {
		res.Completed += cli.done
	}
	for _, cli := range haClis {
		res.Completed += cli.done
		res.Recovery.Failovers += cli.Failovers
		res.Recovery.Failbacks += cli.Failbacks
		res.Recovery.Salvaged += cli.Salvaged
		res.Recovery.Failed += uint64(cli.failed)
	}
	for i := range res.DiskReadsDone {
		if i < len(readers) {
			res.DiskReadsDone[i] = readers[i].done
		}
	}
	res.Recovery.fill(res.Machines)
	return res
}

// netRPCCluster is the spec's cluster. Every HA link runs the reliable
// protocol: failover detection and stale-incarnation rejection ride its
// stamps and retransmits. Pair links turn reliable only when the fault
// plan makes the wire lossy.
func netRPCCluster(flavor kern.Flavor, arch machine.Arch, spec NetRPCSpec) clusterSpec {
	return clusterSpec{
		topo:      spec.topology(),
		cfg:       kern.Config{Flavor: flavor, Arch: arch, DiskLatency: spec.DiskLatency},
		faultSeed: spec.FaultSeed,
		faults:    spec.FaultSpec,
		reliable:  spec.Failover,
		debug:     spec.DebugChecks,
		observe:   spec.Observe,
		ringCap:   obs.DefaultCapacity,
		parallel:  spec.Parallel,
	}
}

// topology is the HA cluster under Failover, client/server pairs
// otherwise.
func (s NetRPCSpec) topology() topology {
	if s.Failover {
		return haTopology
	}
	return pairTopology(max(s.Pairs, 1))
}

// Machines is the number of machines the spec boots.
func (s NetRPCSpec) Machines() int { return len(s.topology().roles) }

// installPairs starts each pair's echo server on its server machine,
// reachable from the wire as "echo", and the spec's clients on its
// client machine, talking to the server through a proxy port.
func installPairs(ms []*kern.System, spec NetRPCSpec) []*netClient {
	clients := max(spec.Clients, 1)
	msgBytes := max(spec.MsgBytes, ipc.HeaderBytes)
	var clis []*netClient
	for p := 0; p+1 < len(ms); p += 2 {
		a, b := ms[p], ms[p+1]
		st := b.NewTask("echo-server")
		sport := b.IPC.NewPort("echo")
		if clients > 1 {
			// Many clients can land requests in the same wire-latency
			// window; the default queue limit would force senders into
			// the full-queue backoff path and serialize them.
			sport.QueueLimit = int32(2 * clients)
		}
		b.Net.Export("echo", sport)
		b.Start(st.NewThread("srv", NewEchoServer(b, sport), 20))

		// Each client needs its own reply port (netmsg auto-export is
		// name-keyed); client 0 keeps the historical names so
		// single-client runs are byte-identical to the old two-machine
		// driver.
		ct := a.NewTask("net-client")
		for j := 0; j < clients; j++ {
			replyName, threadName := core.NameOf("echo-reply"), core.NameOf("cli")
			if j > 0 {
				replyName = core.IndexedName("echo-reply-", j)
				threadName = core.IndexedName("cli-", j)
			}
			cli := &netClient{sys: a, proxy: a.Net.ProxyFor("echo"),
				reply: a.IPC.NewNamedPort(replyName), bytes: msgBytes, rpcs: spec.RPCs}
			clis = append(clis, cli)
			a.Start(ct.NewNamedThread(threadName, cli, 10))
		}
	}
	return clis
}

// startDiskReaders starts one disk reader per machine (none when
// spec.DiskReads is 0), keeping the device layer busy so a crash lands
// on real in-flight I/O. It returns them in machine order.
func startDiskReaders(ms []*kern.System, spec NetRPCSpec) []*diskReader {
	if spec.DiskReads <= 0 {
		return nil
	}
	readers := make([]*diskReader, len(ms))
	for i, sys := range ms {
		readers[i] = &diskReader{sys: sys, disk: sys.Disk,
			bytes: spec.DiskReadBytes, reads: spec.DiskReads}
		sys.Start(sys.NewTask("disk-reader").NewThread("rd", readers[i], 12))
	}
	return readers
}
