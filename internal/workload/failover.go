// The HA (failover) variant of the NetRPC workload: four machines —
// client, primary echo server, replica echo server, second client — with
// each client wired to both servers over point-to-point netmsg links.
// Clients issue RPCs with a receive timeout; when the primary goes
// silent past the membership deadline they fail over to the replica, and
// when the primary's warm reboot announces a new incarnation they fail
// back. A run with `crash=1@...:reboot+...` in its fault spec therefore
// completes 100% of its RPCs with degraded latency instead of hanging.
package workload

import (
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
)

// DefaultRPCTimeout is the failover client's per-attempt receive
// timeout: long enough that queueing behind the other client never trips
// it, short against the membership deadline so dead-server detection is
// driven by RPC traffic, not by luck.
const DefaultRPCTimeout = machine.Duration(10 * 1000 * 1000) // 10 ms

// haMaxAttempts bounds retries per RPC so a cluster whose servers all
// die without reboot still quiesces instead of retrying forever.
const haMaxAttempts = 64

// RecoveryStats is the crash/failover accounting of one run, summed over
// all machines and clients.
type RecoveryStats struct {
	Crashes        uint64 // whole-machine crash events fired
	Reboots        uint64 // warm reboots completed
	DeathsDetected uint64 // times a link declared its peer dead
	Recoveries     uint64 // times a declared-dead peer was heard again
	StaleDropped   uint64 // packets discarded by the incarnation check
	Heartbeats     uint64 // explicit incarnation announcements sent
	Failovers      uint64 // client switches primary -> replica
	Failbacks      uint64 // client switches replica -> primary
	Salvaged       uint64 // RPCs that needed more than one attempt
	Failed         uint64 // RPCs abandoned after haMaxAttempts
}

// fill sums the machine-side counters (the client-side ones are added by
// the driver from each haClient).
func (r *RecoveryStats) fill(machines []*kern.System) {
	for _, s := range machines {
		t := s.NetTotals()
		r.Crashes += s.CrashCount
		r.Reboots += s.Reboots
		r.DeathsDetected += t.DeathsDetected
		r.Recoveries += t.Recoveries
		r.StaleDropped += t.StaleDropped
		r.Heartbeats += t.HeartbeatsTx
	}
}

// haClient issues echo RPCs against the primary server (Links[0]) with a
// receive timeout, retrying with a fresh operation id on every attempt.
// On a timeout it consults the primary link's membership state and fails
// over to the replica (Links[1]); once the primary link records a
// recovery — the rebooted peer was heard from again — it fails back.
// All state is read through c.sys at action time, so the same program
// object survives its own machine's crash: its service, re-run on
// reboot, gives it a fresh reply port and thread and it resumes at the
// RPC it was on.
type haClient struct {
	sys   *kern.System
	name  core.Name
	bytes int
	rpcs  int

	reply *ipc.Port

	done      int
	failed    int
	attempts  int
	opid      uint32
	onReplica bool
	waiting   bool
	recSnap   uint64 // primary link's Recoveries at failover time

	Failovers uint64
	Failbacks uint64
	Salvaged  uint64

	sendAct core.Action
	recvAct core.Action
}

func (c *haClient) primary() *dev.Netmsg { return c.sys.Links[0] }

func (c *haClient) target() *dev.Netmsg {
	if c.onReplica {
		return c.sys.Links[1]
	}
	return c.sys.Links[0]
}

// emitSwitch records a failover (toReplica) or failback in the machine's
// event stream.
func (c *haClient) emitSwitch(t *core.Thread, toReplica bool) {
	r := c.sys.K.Obs
	if !r.TakesEvents() {
		return
	}
	detail, arg := "replica -> primary", 0
	if toReplica {
		detail, arg = "primary -> replica", 1
	}
	r.EmitArg(obs.Failover, t.ID, detail, arg)
}

func (c *haClient) Next(e *core.Env, t *core.Thread) core.Action {
	if c.sendAct.Invoke == nil {
		c.sendAct = core.Syscall("mach_msg(ha-rpc)", func(e *core.Env) {
			req := c.sys.IPC.NewMessage(c.opid, c.bytes, nil, c.reply)
			c.sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send: req, SendTo: c.target().ProxyFor("echo"),
				ReceiveFrom: c.reply, RcvTimeout: DefaultRPCTimeout,
			})
		})
		c.recvAct = core.Syscall("mach_msg(ha-drain)", func(e *core.Env) {
			c.sys.IPC.MachMsg(e, ipc.MsgOptions{
				ReceiveFrom: c.reply, RcvTimeout: DefaultRPCTimeout,
			})
		})
	}
	if c.waiting {
		if m := c.sys.IPC.Received(t); m != nil {
			op := m.OpID
			c.sys.IPC.FreeMessage(m)
			if op != c.opid|ipc.ReplyBit {
				// A late reply to an attempt already retried; the reply to
				// the current attempt is still due. Keep draining.
				return c.recvAct
			}
			c.done++
			if c.attempts > 1 {
				c.Salvaged++
			}
			c.waiting = false
		} else {
			// Timed out (t.MD.RetVal == ipc.RcvTimedOut). Reassess the
			// target before retrying: a silent primary is declared dead by
			// the link's membership state, a recovered one is failed back
			// to at the next attempt below.
			if !c.onReplica && !c.primary().PeerAlive() {
				c.onReplica = true
				c.recSnap = c.primary().Recoveries
				c.Failovers++
				c.emitSwitch(t, true)
			}
			if c.attempts >= haMaxAttempts {
				c.failed++
				c.waiting = false
			}
		}
	}
	if !c.waiting {
		if c.done+c.failed >= c.rpcs {
			return core.Exit()
		}
		c.attempts = 0
	}
	if c.onReplica && c.primary().Recoveries > c.recSnap {
		// The primary was heard from again after its death was declared —
		// its reboot announcement — so new RPCs go home.
		c.onReplica = false
		c.Failbacks++
		c.emitSwitch(t, false)
	}
	c.attempts++
	c.waiting = true
	c.opid = ipc.NextOpID(c.opid)
	return c.sendAct
}

// installHA starts the HA cluster's threads: echo servers on the
// primary (machine 1) and replica (2), clients on machines 0 and 3.
// Clients reach the primary on Links[0] and the replica on Links[1];
// servers reach client 0 on Links[0] and client 1 on Links[1]. Each
// machine registers its threads as a service, so a warm reboot
// re-installs them.
func installHA(ms []*kern.System, spec NetRPCSpec) []*haClient {
	msgBytes := max(spec.MsgBytes, ipc.HeaderBytes)
	clientsPer := max(spec.Clients, 1)

	// Echo servers, re-installed on reboot so a crashed server comes back
	// serving.
	installEcho := func(s *kern.System) {
		st := s.NewTask("echo-server")
		sport := s.IPC.NewPort("echo")
		if clientsPer > 1 {
			sport.QueueLimit = int32(4 * clientsPer)
		}
		for _, n := range s.Links {
			n.Export("echo", sport)
		}
		s.Start(st.NewThread("srv", NewEchoServer(s, sport), 20))
	}
	for _, s := range ms[1:3] {
		s.RegisterService("echo-server", installEcho)
	}

	// Clients, also re-started on reboot: the program object
	// survives its machine's crash, so a rebooted client resumes at the
	// RPC it was on (with a fresh reply port — the old one died with the
	// old incarnation's IPC).
	var clis []*haClient
	for _, cm := range []*kern.System{ms[0], ms[3]} {
		var mine []*haClient
		base := "cli"
		if cm == ms[3] {
			base = "cli-b"
		}
		indexed := base + "-"
		for j := 0; j < clientsPer; j++ {
			name := core.NameOf(base)
			if j > 0 {
				name = core.IndexedName(indexed, j)
			}
			cli := &haClient{sys: cm, name: name, bytes: msgBytes, rpcs: spec.RPCs}
			mine = append(mine, cli)
			clis = append(clis, cli)
		}
		cm.RegisterService("net-clients", func(s *kern.System) {
			ct := s.NewTask("net-client")
			for _, cli := range mine {
				cli.reply = s.IPC.NewNamedPort(cli.name.Suffixed("-reply"))
				cli.waiting = false
				cli.attempts = 0
				s.Start(ct.NewNamedThread(cli.name, cli, 10))
			}
		})
	}
	return clis
}
