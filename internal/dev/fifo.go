package dev

// fifo is a first-in, first-out queue that keeps its buffer. A pop
// clears its slot and advances the head, and the queue rewinds to the
// buffer's start whenever it drains, so a queue that empties between
// bursts stops allocating once its buffer has grown to the largest
// burst. A push into a full buffer with popped slots in front slides
// the live entries down instead of growing. The device queues, the
// io_done completion queue and the netmsg inbox and outbox use it.
type fifo[T any] struct {
	buf  []T
	head int
}

// size reports how many entries are queued.
func (q *fifo[T]) size() int { return len(q.buf) - q.head }

// push appends v at the tail.
func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the head entry; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// live returns the queued entries, oldest first. The slice aliases the
// buffer: it is for scans, and valid until the next push or pop.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }
