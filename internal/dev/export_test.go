package dev

// Hooks into the completion queue and the rx completion free list for
// the external tests of recycled storage.

// PopCompletionForTest takes the head of the completion queue without
// processing it, leaving the queue partly drained.
func (s *Subsystem) PopCompletionForTest() *Request { return s.completions.pop() }

// QueuedRxForTest returns the queued rx completions and the packets they
// carry, oldest first.
func (s *Subsystem) QueuedRxForTest() (reqs []*Request, pkts []*Packet) {
	for _, r := range s.completions.live() {
		if r.deliver != nil {
			reqs = append(reqs, r)
			pkts = append(pkts, r.pkt)
		}
	}
	return reqs, pkts
}

// RxFreeForTest returns the rx completions on the free list.
func (s *Subsystem) RxFreeForTest() []*Request { return s.rxFree }

// DedupForTest returns the link's dedup watermark and how many intervals
// of delivered sequence numbers wait above it.
func (n *Netmsg) DedupForTest() (low uint64, intervals int) { return n.seen.low, len(n.seen.above) }

// PacketFreeForTest returns the packets on the machine's free list, and
// PacketsMadeForTest how many packets the machine has allocated.
func (s *Subsystem) PacketFreeForTest() []*Packet { return s.pktFree }
func (s *Subsystem) PacketsMadeForTest() int      { return s.pktMade }

// FreePacketForTest returns p to the machine's free list.
func (s *Subsystem) FreePacketForTest(p *Packet) { s.freePacket(p) }

// FreeForTest reports whether p is on a free list.
func (p *Packet) FreeForTest() bool { return p.free }

// OnArrivalForTest makes f see every packet that arrives at the NIC, as
// its arrival event fires and before the NIC takes it.
func (n *NIC) OnArrivalForTest(f func(*Packet)) {
	n.onArrive = func(arg any) {
		f(arg.(*Packet))
		n.arrive(arg)
	}
}

// ReceiveForTest runs p's arrival at the NIC, as its arrival event does.
func (n *NIC) ReceiveForTest(p *Packet) { n.receive(p) }

// PostRxForTest posts an rx completion handing p to the NIC's handler, as
// the rx interrupt does.
func (n *NIC) PostRxForTest(p *Packet) { n.Sub.PostCompletion(n.Sub.rxCompletion(n.handler, p)) }

// InboxForTest queues p on the link's inbox, as io_done does, and
// OutboxForTest returns the packets queued for the wire.
func (n *Netmsg) InboxForTest(p *Packet)   { n.takePacket(nil, p) }
func (n *Netmsg) OutboxForTest() []*Packet { return n.outbox.live() }

// HeldForTest counts the packets the link's machine holds off its free
// list: in rx completions and in the link's inbox and outbox.
func (n *Netmsg) HeldForTest() int {
	_, rx := n.Sub.QueuedRxForTest()
	return len(rx) + n.inbox.size() + n.outbox.size()
}

// UnackedRecordForTest returns the unacked record of data packet seq, or
// nil, and UnackedFreeForTest how many records wait on the free list.
func (n *Netmsg) UnackedRecordForTest(seq uint64) any {
	if u := n.unacked[seq]; u != nil {
		return u
	}
	return nil
}
func (n *Netmsg) UnackedFreeForTest() int { return len(n.unackedFree) }
