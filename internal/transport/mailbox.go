// Package transport moves messages between node processes. Each process
// owns one unbounded FIFO mailbox; delivery order within the mailbox equals
// enqueue order across all senders, which is the property the §3.2
// termination protocol's correctness argument relies on (see DESIGN.md).
// Mailboxes are unbounded so that message cycles through recursive
// components can never deadlock on channel capacity.
//
// A consumer that owns many mailboxes — the run loop stepping every node
// process a site hosts — attaches them to one Hub: the list of those holding
// mail plus the one doorbell it parks on when none does. Within one site the
// loop feeds its own mailboxes, so the doorbell exists for producers on other
// goroutines only: TCP readers and FaultNet's delayed deliveries.
//
// Two Network implementations are provided: Local, which routes every
// message to an in-process mailbox, and the TCP transport in tcp.go, which
// carries messages between OS processes over sockets — demonstrating the
// paper's claim that "shared memory is not required, making this approach
// suitable for distributed systems".
package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/msg"
)

// Mailbox is an unbounded FIFO queue of messages. Any number of goroutines
// may Put; one owner consumes, with Get on this mailbox alone or through the
// Hub it is attached to. The zero value is an empty open mailbox.
type Mailbox struct {
	mu     sync.Mutex
	queue  []msg.Message
	head   int
	closed bool
	// A Put lists the mailbox with the Hub it is attached to (listed: it is
	// there already) and rings bell — the hub's, or a private one made by the
	// first Get that had to block.
	hub     *Hub
	listed  bool
	bell    *bell
	dropped atomic.Int64 // Puts after Close (late messages during shutdown)
}

// NewMailbox returns an empty open mailbox.
func NewMailbox() *Mailbox { return &Mailbox{} }

// Put enqueues a message. On a closed mailbox it is a no-op (late messages
// during shutdown are dropped deliberately), counted so that trace.Stats can
// surface the drop.
func (m *Mailbox) Put(x msg.Message) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.dropped.Add(1)
		return
	}
	m.queue = append(m.queue, x)
	h, b := m.hub, m.bell
	list := h != nil && !m.listed
	m.listed = m.listed || list
	m.mu.Unlock()
	if list {
		h.list(m)
	}
	if b != nil {
		b.ring()
	}
}

// pop dequeues the oldest message; the caller holds m.mu.
func (m *Mailbox) pop() (x msg.Message, ok bool) {
	if m.head == len(m.queue) {
		return x, false
	}
	x = m.queue[m.head]
	m.queue[m.head] = msg.Message{} // release Vals for GC
	m.head++
	if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
	} else if m.head > 64 && m.head*2 >= len(m.queue) {
		// Compact so the backing array cannot grow with total throughput.
		n := copy(m.queue, m.queue[m.head:])
		m.queue = m.queue[:n]
		m.head = 0
	}
	return x, true
}

// Get blocks until a message is available or the mailbox is closed.
// ok is false once the mailbox is closed and drained.
func (m *Mailbox) Get() (x msg.Message, ok bool) {
	for {
		m.mu.Lock()
		if x, ok = m.pop(); ok || m.closed {
			m.mu.Unlock()
			return x, ok
		}
		if m.bell == nil {
			m.bell = newBell()
		}
		b := m.bell
		b.parked.Store(true) // before the unlock: the next Put sees it and rings
		m.mu.Unlock()
		<-b.ch
	}
}

// Empty reports whether the mailbox currently holds no messages. This is
// the queue-emptiness half of the protocol's empty_queues() test.
func (m *Mailbox) Empty() bool { return m.Len() == 0 }

// Len reports the number of queued messages.
func (m *Mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.head
}

// Close makes further Puts no-ops and wakes the consumer: a blocked Get
// returns once the queue is drained, a Hub reports Closed.
func (m *Mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	h, b := m.hub, m.bell
	m.mu.Unlock()
	if h != nil {
		h.closed.Store(true)
	}
	if b != nil {
		b.ring()
	}
}

// Reset reopens a closed (or drained) mailbox for reuse, keeping the backing
// array. No goroutine may still be using it (the engine resets only between
// evaluations).
func (m *Mailbox) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.queue)
	m.queue = m.queue[:0]
	m.head = 0
	m.closed = false
	m.listed = false // its hub, if any, is Reset with it
	m.dropped.Store(0)
}

// bell is a consumer's one wake-up primitive. A consumer about to block
// raises parked; the producer that then finds it raised lowers it and puts a
// token in ch. Each side publishes (mail, an abort, a close) before looking
// at the other's flag, so a consumer that re-checks after raising parked
// cannot sleep through a wake-up. A token may be stale.
type bell struct {
	parked atomic.Bool
	ch     chan struct{}
}

func newBell() *bell { return &bell{ch: make(chan struct{}, 1)} }

func (b *bell) ring() {
	if b.parked.Load() && b.parked.CompareAndSwap(true, false) {
		select {
		case b.ch <- struct{}{}:
		default:
		}
	}
}

// Hub is the receiving end of a consumer that owns several mailboxes — a
// site's run loop: Next hands it their messages one at a time, and when none
// holds mail it blocks on Bell, the site's one wake-up primitive. Producers
// (the consumer itself, TCP readers, FaultNet) only ever Put.
type Hub struct {
	mu     sync.Mutex
	ready  []*Mailbox // attached mailboxes holding mail, each listed once, oldest first
	bell   *bell
	closed atomic.Bool
}

// NewHub returns a hub with no mailboxes attached.
func NewHub() *Hub { return &Hub{bell: newBell()} }

// Attach makes h the consumer of the given mailboxes; mail they already hold
// (a remote site may send before this one is ready) is listed at once.
func (h *Hub) Attach(boxes ...*Mailbox) {
	for _, m := range boxes {
		m.mu.Lock()
		m.hub, m.bell = h, h.bell
		m.listed = m.head < len(m.queue)
		list := m.listed
		if m.closed {
			h.closed.Store(true)
		}
		m.mu.Unlock()
		if list {
			h.list(m)
		}
	}
}

// list puts m, which just got mail, on the ready list.
func (h *Hub) list(m *Mailbox) {
	h.mu.Lock()
	h.ready = append(h.ready, m)
	h.mu.Unlock()
}

// Reset forgets pending mail; the consumer Resets its mailboxes with it.
func (h *Hub) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	clear(h.ready)
	h.ready = h.ready[:0]
}

// Bell delivers a (possibly stale) token after a Put or Close that
// followed a Next which found nothing.
func (h *Hub) Bell() <-chan struct{} { return h.bell.ch }

// Closed reports whether an attached mailbox was closed: the site is going.
func (h *Hub) Closed() bool { return h.closed.Load() }

// Next dequeues one message (for x.To) from an attached mailbox holding
// mail. pick chooses among the n such mailboxes; nil takes the one listed
// longest, so mailboxes take turns. With ok false nothing is pending and the
// consumer may block on Bell — after re-checking whatever else can wake it.
func (h *Hub) Next(pick func(n int) int) (x msg.Message, ok bool) {
	for {
		h.mu.Lock()
		n := len(h.ready)
		if n == 0 {
			h.bell.parked.Store(true)
			h.mu.Unlock()
			return x, false
		}
		i := 0
		if pick != nil {
			i = pick(n)
		}
		m := h.ready[i]
		copy(h.ready[i:], h.ready[i+1:])
		h.ready[n-1] = m // provisionally back in line, behind the others
		m.mu.Lock()
		x, ok = m.pop()
		m.listed = m.head < len(m.queue)
		if !m.listed {
			h.ready[n-1] = nil
			h.ready = h.ready[:n-1]
		}
		m.mu.Unlock()
		h.mu.Unlock()
		if ok {
			return x, true
		}
		// m was listed but already drained (a direct Get beat us to it).
	}
}

// Network delivers messages to node processes by id. Implementations must
// preserve per-sender order: two messages from the same sender to the same
// recipient arrive in send order.
type Network interface {
	Send(x msg.Message)
}

// Local is an in-process Network: one mailbox per node id.
type Local struct {
	Boxes []*Mailbox
}

// NewLocal creates n mailboxes addressed 0..n-1.
func NewLocal(n int) *Local {
	boxes, store := make([]*Mailbox, n), make([]Mailbox, n)
	for i := range boxes {
		boxes[i] = &store[i]
	}
	return &Local{Boxes: boxes}
}

// Send enqueues the message into the recipient's mailbox.
func (l *Local) Send(x msg.Message) { l.Boxes[x.To].Put(x) }

// Close closes every mailbox.
func (l *Local) Close() {
	for _, b := range l.Boxes {
		b.Close()
	}
}

// Dropped sums the post-Close Put drops across all mailboxes.
func (l *Local) Dropped() (n int64) {
	for _, b := range l.Boxes {
		n += b.dropped.Load()
	}
	return n
}
