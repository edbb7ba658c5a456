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

// DedupForTest returns the link's dedup watermark and how many delivered
// sequence numbers wait above it.
func (n *Netmsg) DedupForTest() (low uint64, above int) { return n.seen.low, len(n.seen.above) }
