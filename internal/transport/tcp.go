package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/msg"
)

// TCP is a Network that spans several "sites" (OS processes or independent
// listeners), each hosting a subset of the node processes. Messages to
// locally hosted nodes go straight to their mailboxes; messages to remote
// nodes are gob-encoded over a per-site-pair TCP connection.
//
// Ordering guarantee: all traffic from site A to site B shares one
// connection, so per-sender FIFO delivery is preserved — sufficient for the
// engine's cross-component watermark accounting. The §3.2 termination
// protocol additionally needs total enqueue-order FIFO within a strong
// component, so partitions must co-locate each nontrivial strong component
// on one site (engine.Partition enforces this; a fully general distribution
// would extend the protocol with per-channel message counts).
//
// Failure handling (see doc/PROTOCOL.md, "Failure model"): links are
// fail-stop. A site dials each peer once, at its first send there, and
// retries a refused dial only within Config.DialTimeout, because sites
// start in any order. The connection opens with a Hello frame naming the
// dialing site; both ends then heartbeat on it, so each end's read deadline
// (Config.HeartbeatTimeout) notices a silent peer. A connection is never
// re-dialed: when one errors, goes silent, or ends without the peer's Bye
// frame, the peer is declared down — one PeerDown event on Down(), and
// every later send to it is dropped (counted, logged once per peer at
// Close). A delivered stream is therefore always a FIFO prefix of the sent
// one. Close writes Bye on every connection before closing it, which is
// how a peer tells a site that finished and left from one that crashed.
type TCP struct {
	site  int
	hosts []int // node id → site id
	local *Local
	ln    net.Listener
	cfg   Config
	addrs []string

	ctx  context.Context // cancelled by Close
	stop context.CancelFunc

	mu        sync.Mutex
	dials     map[int]*dialAttempt // the one dial to each peer site
	gone      map[int]error        // peers down or departed: sends drop fast
	dropCount map[int]int64        // sends dropped, by destination site
	live      map[*siteConn]bool   // open connections, dialed and accepted
	down      chan PeerDown
	wg        sync.WaitGroup
}

// siteConn is one open connection, dialed or accepted. The mutex serializes
// writes (the gob encoder is stateful); done is closed when its reader
// returns, which is when the connection's fate has been judged.
type siteConn struct {
	mu   sync.Mutex
	c    net.Conn
	rw   *slidingConn
	enc  *gob.Encoder
	done chan struct{}
}

func (sc *siteConn) write(m msg.Message) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.enc.Encode(m)
}

// dialAttempt is the one dial to a peer site: every sender waits on done
// and shares the outcome.
type dialAttempt struct {
	done chan struct{}
	sc   *siteConn
	err  error
}

// dialRetry spaces the retries of a refused first dial.
const dialRetry = 20 * time.Millisecond

var (
	errBye    = errors.New("peer left")
	errClosed = errors.New("transport: closed")
)

// slidingConn makes deadlines measure *stalls* rather than frame size.
// Read pushes the read deadline forward on every call, so a large frame
// (e.g. a many-row Tuple over a slow link) that takes longer than
// HeartbeatTimeout to stream keeps the connection alive as long as bytes
// are arriving.
//
// Writes deliberately do NOT use the heartbeat timeout: a stalled write is
// not a liveness signal. A healthy peer can accept nothing for tens of
// milliseconds (a full window with TCP's delayed-ACK timer pending does
// exactly this), and a dead peer is detected by the read side anyway —
// heartbeat silence trips the read deadline, the connection is closed, and
// closing unblocks any writer stuck on it. The write deadline is only a
// backstop against the pathological peer that keeps heartbeating but never
// reads, so it uses the much coarser writeTimeout (the DialTimeout scale —
// how long we are willing to wait before giving up on a peer), renewed
// whenever a blocked write makes progress.
type slidingConn struct {
	net.Conn
	timeout      time.Duration // read: max silence between successful reads
	writeTimeout time.Duration // write: backstop for a peer that stops reading
}

func (c *slidingConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *slidingConn) Write(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return total, err
		}
		n, err := c.Conn.Write(p[total:])
		total += n
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && n > 0 {
				continue // progress was made; renew the deadline and keep going
			}
			return total, err
		}
	}
	return total, nil
}

// NewTCP starts a site with the default Config: it listens on addrs[site]
// and will dial peers on demand. hosts maps every node id (including the
// driver id) to its site. local receives messages for locally hosted nodes.
func NewTCP(site int, addrs []string, hosts []int, local *Local) (*TCP, error) {
	return NewTCPConfig(site, addrs, hosts, local, Config{})
}

// NewTCPConfig is NewTCP with explicit failure-handling parameters.
func NewTCPConfig(site int, addrs []string, hosts []int, local *Local, cfg Config) (*TCP, error) {
	ln, err := net.Listen("tcp", addrs[site])
	if err != nil {
		return nil, fmt.Errorf("transport: site %d listen: %w", site, err)
	}
	t := &TCP{
		site:      site,
		hosts:     hosts,
		local:     local,
		ln:        ln,
		cfg:       cfg.withDefaults(),
		addrs:     addrs,
		dials:     make(map[int]*dialAttempt),
		gone:      make(map[int]error),
		dropCount: make(map[int]int64),
		live:      make(map[*siteConn]bool),
		down:      make(chan PeerDown, len(addrs)+1),
	}
	t.ctx, t.stop = context.WithCancel(context.Background())
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the address the site actually listens on (useful when the
// configured address used port 0).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Down delivers at most one PeerDown event per peer site declared down.
// The channel is buffered for every possible peer, so the transport never
// blocks on it; the engine's watchdog (Options.PeerDown) aborts the query
// on the first event.
func (t *TCP) Down() <-chan PeerDown { return t.down }

func (t *TCP) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.serve(t.newConn(c), -1)
	}
}

func (t *TCP) newConn(c net.Conn) *siteConn {
	rw := &slidingConn{Conn: c, timeout: t.cfg.HeartbeatTimeout, writeTimeout: t.cfg.DialTimeout}
	return &siteConn{c: c, rw: rw, enc: gob.NewEncoder(rw), done: make(chan struct{})}
}

// serve registers an open connection and starts its reader and heartbeat
// goroutines. peer is the far site, or -1 on an accepted connection until
// its Hello arrives. It returns nil, closing the connection, once the
// transport is closed.
func (t *TCP) serve(sc *siteConn, peer int) *siteConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ctx.Err() != nil {
		sc.c.Close()
		return nil
	}
	t.live[sc] = true
	t.wg.Add(2)
	go t.readLoop(sc, peer)
	go t.heartbeatLoop(sc)
	return sc
}

// readLoop decodes one connection's frames until it ends, delivering
// payload frames to the local mailboxes and swallowing Hello and Heartbeat
// traffic. The read deadline slides forward on every successful read, so
// a connection silent past HeartbeatTimeout ends with a timeout. A
// connection that ends at the peer's Bye records a departure; any other
// end declares the peer down.
func (t *TCP) readLoop(sc *siteConn, peer int) {
	defer t.wg.Done()
	dec := gob.NewDecoder(sc.rw)
	var err error
	for err == nil {
		var m msg.Message
		if err = dec.Decode(&m); err != nil {
			break
		}
		switch m.Kind {
		case msg.Hello:
			peer = m.From
		case msg.Heartbeat:
			// Liveness only: the successful read already moved the deadline.
		case msg.Bye:
			err = errBye
		default:
			if peer < 0 {
				err = errors.New("payload before Hello")
			} else {
				t.local.Send(m)
			}
		}
	}
	t.mu.Lock()
	delete(t.live, sc)
	t.mu.Unlock()
	sc.c.Close()
	close(sc.done)
	if peer >= 0 {
		t.lose(peer, err)
	}
}

// lose records how a link to a peer ended: errBye is a departure, anything
// else declares the peer down and emits its one PeerDown. Either way later
// sends to the peer drop. The first outcome for a peer stands, and nothing
// is recorded once this transport is closing (its own sockets are what
// ended).
func (t *TCP) lose(site int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ctx.Err() != nil || t.gone[site] != nil {
		return
	}
	if err == errBye {
		t.gone[site] = fmt.Errorf("site %d left", site)
		return
	}
	t.gone[site] = err
	t.cfg.Stats.PeerDown()
	t.logf("transport: site %d: peer site %d declared down: %v", t.site, site, err)
	select {
	case t.down <- PeerDown{Site: site, Err: err}:
	default:
	}
}

// heartbeatLoop writes a liveness frame every HeartbeatInterval so the far
// end's read deadline stays satisfied. A failed write ends it; the reader
// judges the connection.
func (t *TCP) heartbeatLoop(sc *siteConn) {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-sc.done:
			return
		case <-t.ctx.Done():
			return
		case <-tick.C:
			if sc.write(msg.Message{Kind: msg.Heartbeat, From: t.site}) != nil {
				return
			}
			t.cfg.Stats.Heartbeat()
		}
	}
}

// Send routes the message to the mailbox of a locally hosted node or over
// the connection to the hosting site. A message to a peer that is down or
// gone, or whose write fails, is dropped and counted
// (trace.Stats.DroppedSends, logged once per peer at Close).
func (t *TCP) Send(m msg.Message) {
	dest := t.hosts[m.To]
	if dest == t.site {
		t.local.Send(m)
		return
	}
	sc, err := t.peer(dest)
	if err == nil {
		if err = sc.write(m); err != nil {
			t.writeFailed(dest, sc, err)
		}
	}
	if err != nil {
		t.mu.Lock()
		t.dropCount[dest]++
		t.mu.Unlock()
		t.cfg.Stats.DroppedSend()
	}
}

// writeFailed settles a failed write to a peer. The reader judges the
// connection, because a write also fails when the peer has left and its
// Bye still sits unread in the socket; only a reader that stays blocked
// for HeartbeatTimeout (a peer still heartbeating but no longer reading)
// leaves the failed write to declare the peer down.
func (t *TCP) writeFailed(site int, sc *siteConn, err error) {
	select {
	case <-sc.done:
	case <-time.After(t.cfg.HeartbeatTimeout):
		t.lose(site, err)
		sc.c.Close()
	}
}

// peer returns the connection to the given site, starting its one dial or
// waiting for the dial in flight.
func (t *TCP) peer(site int) (*siteConn, error) {
	t.mu.Lock()
	if t.ctx.Err() != nil {
		t.mu.Unlock()
		return nil, errClosed
	}
	if err := t.gone[site]; err != nil {
		t.mu.Unlock()
		return nil, err
	}
	da := t.dials[site]
	if da == nil {
		da = &dialAttempt{done: make(chan struct{})}
		t.dials[site] = da
		t.wg.Add(1)
		go t.dial(site, da)
	}
	t.mu.Unlock()
	select {
	case <-da.done:
		return da.sc, da.err
	case <-t.ctx.Done():
		return nil, errClosed
	}
}

// dial makes the one connection to a peer and says Hello on it. Sites
// start in any order, so a failed attempt is retried every dialRetry until
// DialTimeout runs out; then the peer is declared down.
func (t *TCP) dial(site int, da *dialAttempt) {
	defer t.wg.Done()
	defer close(da.done)
	ctx, cancel := context.WithTimeout(t.ctx, t.cfg.DialTimeout)
	defer cancel()
	var d net.Dialer
	for {
		c, err := d.DialContext(ctx, "tcp", t.addrs[site])
		if err == nil {
			sc := t.newConn(c)
			if err = sc.write(msg.Message{Kind: msg.Hello, From: t.site}); err == nil {
				if da.sc = t.serve(sc, site); da.sc == nil {
					da.err = errClosed
				}
				return
			}
			c.Close()
		}
		select {
		case <-ctx.Done():
			da.err = fmt.Errorf("transport: dial site %d: %w", site, err)
			t.lose(site, da.err)
			return
		case <-time.After(dialRetry):
		}
	}
}

// Close leaves cleanly: it writes Bye on every open connection, dialed and
// accepted, so each peer sees a departure rather than a crash, then closes
// the connections and the listener. Later sends are dropped. Per-peer drop
// totals are logged once here — the shutdown-time visibility for messages
// discarded because a peer was down or gone.
func (t *TCP) Close() { t.shutdown(true) }

// shutdown closes the transport, saying Bye first when bye is set; without
// it, peers see the broken links of a crashed site.
func (t *TCP) shutdown(bye bool) {
	t.mu.Lock()
	if t.ctx.Err() != nil {
		t.mu.Unlock()
		return
	}
	t.stop()
	live := make([]*siteConn, 0, len(t.live))
	for sc := range t.live {
		live = append(live, sc)
	}
	for site, n := range t.dropCount {
		t.logf("transport: site %d: dropped %d message(s) to site %d (%v)", t.site, n, site, t.gone[site])
	}
	t.mu.Unlock()

	t.ln.Close()
	for _, sc := range live {
		if bye {
			// Under the write lock, so no frame can follow the Bye.
			sc.mu.Lock()
			sc.enc.Encode(msg.Message{Kind: msg.Bye, From: t.site})
			sc.c.Close()
			sc.mu.Unlock()
		} else {
			sc.c.Close()
		}
	}
	t.wg.Wait()
}
