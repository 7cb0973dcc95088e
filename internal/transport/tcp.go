package transport

import (
	"encoding/gob"
	"fmt"
	"math/rand"
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
// Failure handling (see doc/PROTOCOL.md, "Failure model"): each dialed
// connection starts with a Hello frame identifying the dialing site, then
// carries periodic heartbeats in both directions (the dialer pings, the
// acceptor echoes). A connection that errors or stays silent past
// Config.HeartbeatTimeout is torn down and re-dialed with exponential
// backoff + jitter; once the total re-dial window (Config.DialTimeout)
// expires the peer is declared down — subsequent sends drop fast (counted,
// logged once per peer at Close) and a PeerDown event is emitted on Down().
//
// Reconnection preserves the FIFO stream exactly. A successful socket
// write only proves bytes reached the kernel, not the peer, so the
// transport never trusts writes: with heartbeats enabled every payload
// frame carries a per-link sequence number, the acceptor acknowledges the
// highest delivered sequence on its heartbeat echoes, and a reconnecting
// dialer replays the entire unacknowledged suffix after its Hello. The
// receiver accepts exactly the next expected sequence and drops everything
// else as a replay duplicate, so a healed connection delivers the same
// stream as an unbroken one — no loss, no duplication, no reordering.
type TCP struct {
	site  int
	hosts []int // node id → site id
	local *Local
	ln    net.Listener
	cfg   Config

	mu        sync.Mutex
	conns     map[int]*siteConn    // established dialed connections, by peer site
	dialing   map[int]*dialAttempt // in-flight dial attempts, by peer site
	failed    map[int]error        // peers declared down: sends drop fast
	everConn  map[int]bool         // peers successfully dialed at least once
	downSent  map[int]bool         // PeerDown already emitted for this peer
	dropCount map[int]int64        // sends dropped, by destination site
	accepted  map[net.Conn]int     // accepted connections → peer site (-1 unknown)
	links     map[int]*peerLink    // outbound sequencing state, by peer site
	recv      map[int]*recvLink    // inbound sequencing state, by peer site

	down chan PeerDown

	rngMu sync.Mutex
	rng   *rand.Rand

	wg       sync.WaitGroup
	addrs    []string
	closed   bool
	closedCh chan struct{}
}

// siteConn is one established outbound connection. The mutex serializes
// writes (the gob encoder is stateful); done is closed exactly once when
// the connection is torn down.
type siteConn struct {
	mu        sync.Mutex
	c         net.Conn
	enc       *gob.Encoder
	done      chan struct{}
	closeOnce sync.Once
}

func (sc *siteConn) close() {
	sc.closeOnce.Do(func() {
		close(sc.done)
		sc.c.Close()
	})
}

// peerLink is the durable outbound state for one peer site; it outlives
// individual connections so a reconnect can resume the sequence stream.
// Lock order: peerLink.mu may be taken before siteConn.mu, never after.
type peerLink struct {
	mu      sync.Mutex
	sc      *siteConn     // current live connection; nil while down/dialing
	nextSeq uint64        // sequence number for the next payload frame
	ackSeq  uint64        // highest sequence the peer has acknowledged
	unacked []msg.Message // frames in (ackSeq, nextSeq), in sequence order
}

// recvLink is the durable inbound state for one peer site: the highest
// sequence delivered to local mailboxes, shared by every connection that
// peer has dialed (a reconnect replays frames the old connection may have
// delivered already; this is where the duplicates are dropped). The state
// deliberately outlives connections but not the transport: a peer *site*
// that restarts is a new evaluation — its stream is not a resumption of
// the old one, and the engine's failure handling (PeerDown, deadlines)
// governs that case, not link-level sequencing.
type recvLink struct {
	mu      sync.Mutex
	lastSeq uint64
}

// dialAttempt deduplicates concurrent dials to one peer: every interested
// sender waits on done and shares the outcome.
type dialAttempt struct {
	done chan struct{}
	sc   *siteConn
	err  error
}

// slidingConn makes deadlines measure *stalls* rather than frame size.
// Read pushes the read deadline forward on every call, so a large frame
// (e.g. a TupleBatch over a slow link) that takes longer than
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
	cfg = cfg.withDefaults()
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}
	t := &TCP{
		site:      site,
		hosts:     hosts,
		local:     local,
		ln:        ln,
		cfg:       cfg,
		conns:     make(map[int]*siteConn),
		dialing:   make(map[int]*dialAttempt),
		failed:    make(map[int]error),
		everConn:  make(map[int]bool),
		downSent:  make(map[int]bool),
		dropCount: make(map[int]int64),
		accepted:  make(map[net.Conn]int),
		links:     make(map[int]*peerLink),
		recv:      make(map[int]*recvLink),
		down:      make(chan PeerDown, len(addrs)+1),
		rng:       rand.New(rand.NewSource(seed)),
		addrs:     addrs,
		closedCh:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the address the site actually listens on (useful when the
// configured address used port 0).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Down delivers at most one PeerDown event per peer site declared
// unreachable. The channel is buffered for every possible peer, so the
// transport never blocks on it; the engine's watchdog (Options.PeerDown)
// aborts the query on the first event.
func (t *TCP) Down() <-chan PeerDown { return t.down }

func (t *TCP) isClosed() bool {
	select {
	case <-t.closedCh:
		return true
	default:
		return false
	}
}

func (t *TCP) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// link returns the durable outbound sequencing state for a peer site.
func (t *TCP) link(site int) *peerLink {
	t.mu.Lock()
	defer t.mu.Unlock()
	lk := t.links[site]
	if lk == nil {
		lk = &peerLink{nextSeq: 1}
		t.links[site] = lk
	}
	return lk
}

// recvLinkFor returns the durable inbound sequencing state for a peer site.
func (t *TCP) recvLinkFor(site int) *recvLink {
	t.mu.Lock()
	defer t.mu.Unlock()
	rl := t.recv[site]
	if rl == nil {
		rl = &recvLink{}
		t.recv[site] = rl
	}
	return rl
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.accepted[c] = -1
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// readLoop serves one accepted connection: it decodes frames, swallows the
// transport-level Hello/Heartbeat traffic, and delivers everything else to
// the local mailboxes. With heartbeats enabled, the read deadline slides
// forward on every successful read — a connection silent past
// HeartbeatTimeout is treated as dead — and an echo goroutine heartbeats
// back to the dialer (carrying the cumulative delivery acknowledgement) so
// the dialer's own read deadline stays satisfied.
func (t *TCP) readLoop(c net.Conn) {
	defer t.wg.Done()
	peer := -1
	var rl *recvLink
	var echoStop chan struct{}
	defer func() {
		c.Close()
		if echoStop != nil {
			close(echoStop)
		}
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
		// A lost inbound connection from a known peer is a failure signal
		// even for a site that never sends to that peer: probe it in the
		// background so a crash is detected (and the query aborted) instead
		// of this site waiting forever for tuples that cannot arrive.
		if peer >= 0 && !t.isClosed() {
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.peer(peer) // outcome recorded in conns/failed; errors emit PeerDown
			}()
		}
	}()
	sl := &slidingConn{Conn: c, timeout: t.cfg.HeartbeatTimeout, writeTimeout: t.cfg.DialTimeout}
	dec := gob.NewDecoder(sl)
	enc := gob.NewEncoder(sl)
	for {
		var m msg.Message
		if err := dec.Decode(&m); err != nil {
			return
		}
		switch m.Kind {
		case msg.Hello:
			peer = m.From
			t.mu.Lock()
			t.accepted[c] = peer
			t.mu.Unlock()
			rl = t.recvLinkFor(peer)
			// Hello carries the cumulative ack the dialer's replay resumes
			// from. A receiver that kept its state has lastSeq >= that ack
			// already (acks only ever report delivered frames) and this is
			// a no-op; a receiver restarted from scratch fast-forwards so
			// the replayed suffix lands as the next expected frames.
			rl.mu.Lock()
			if m.Seq > rl.lastSeq {
				rl.lastSeq = m.Seq
			}
			rl.mu.Unlock()
			if echoStop == nil {
				echoStop = make(chan struct{})
				t.wg.Add(1)
				go t.echoHeartbeats(c, enc, rl, echoStop)
			}
		case msg.Heartbeat:
			// Liveness only: the successful read already reset the deadline.
		default:
			if rl == nil {
				return // payload before Hello: not a peer of ours
			}
			// Accept exactly the next expected frame; anything else is a
			// replay duplicate whose in-order copy arrived on an earlier
			// connection. Delivery happens under the link lock so two
			// connections draining concurrently cannot reorder accepted
			// frames.
			rl.mu.Lock()
			if m.Seq == rl.lastSeq+1 {
				rl.lastSeq = m.Seq
				t.local.Send(m)
			}
			rl.mu.Unlock()
		}
	}
}

// echoHeartbeats writes periodic heartbeats back to the dialing site on the
// accepted connection, so the dialer can detect this site's death through
// its read deadline. Each echo carries the cumulative delivery ack
// (recvLink.lastSeq) that lets the dialer prune its replay buffer. Exits
// when the connection dies or the transport closes.
func (t *TCP) echoHeartbeats(c net.Conn, enc *gob.Encoder, rl *recvLink, stop chan struct{}) {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.closedCh:
			return
		case <-tick.C:
			rl.mu.Lock()
			ack := rl.lastSeq
			rl.mu.Unlock()
			if err := enc.Encode(msg.Message{Kind: msg.Heartbeat, From: t.site, Seq: ack}); err != nil {
				return // readLoop will see the dead conn and clean up
			}
			t.cfg.Stats.Heartbeat()
		}
	}
}

// jitter draws a deterministic random duration in [0, max).
func (t *TCP) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return time.Duration(t.rng.Int63n(int64(max)))
}

// Send routes the message to the mailbox of a locally hosted node or over
// the connection to the hosting site. Every remote frame enters the per-link
// replay buffer before it is written, so a connection lost mid-stream —
// including frames the kernel accepted but never delivered — is healed by
// replaying the unacknowledged suffix on reconnect; only a peer declared down
// loses messages, and those are counted (trace.Stats.DroppedSends) and
// logged once per peer at Close.
func (t *TCP) Send(m msg.Message) {
	dest := t.hosts[m.To]
	if dest == t.site {
		t.local.Send(m)
		return
	}
	lk := t.link(dest)
	lk.mu.Lock()
	m.Seq = lk.nextSeq
	lk.nextSeq++
	lk.unacked = append(lk.unacked, m)
	sc := lk.sc
	var encErr error
	if sc != nil {
		encErr = t.encode(sc, m)
	}
	lk.mu.Unlock()
	switch {
	case sc == nil:
		// No live connection. Join or start the dial; its handshake
		// replays the unacked suffix — including this frame — in order,
		// so there is nothing to write here. (The append above and the
		// handshake's replay both run under lk.mu: whichever runs second
		// sees the other's effect, so the frame is either replayed or
		// encoded directly, never skipped.)
		if _, err := t.peer(dest); err != nil {
			// Peer declared down (or transport closed): nothing will ever
			// replay the buffer — flush it into the drop counters.
			t.flushLink(dest)
		}
	case encErr != nil:
		// The write failed; the frame stays in the replay buffer and the
		// reconnect triggered here delivers it (or the peer is declared
		// down and the buffer is flushed as drops).
		t.connLost(dest, sc)
	}
}

// encode serializes one frame onto the connection under the write lock.
// The encoder writes through a slidingConn; a write blocked on a dead peer is
// unblocked when the read side's heartbeat deadline closes the connection
// (see slidingConn for why writes carry only the coarse backstop deadline
// themselves).
func (t *TCP) encode(sc *siteConn, m msg.Message) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.enc.Encode(m)
}

// flushLink empties a peer's replay buffer into the drop counters: called
// when the peer is declared down (no reconnect will ever replay it) so the
// buffered frames are surfaced as drops rather than silently retained.
func (t *TCP) flushLink(site int) {
	lk := t.link(site)
	lk.mu.Lock()
	n := len(lk.unacked)
	lk.unacked = nil
	lk.ackSeq = lk.nextSeq - 1
	lk.mu.Unlock()
	if n == 0 {
		return
	}
	t.mu.Lock()
	t.dropCount[site] += int64(n)
	t.mu.Unlock()
	for i := 0; i < n; i++ {
		t.cfg.Stats.DroppedSend()
	}
}

// peer returns the connection to the given site, joining an in-flight dial
// attempt or starting one (with backoff, within the DialTimeout window) if
// none exists.
func (t *TCP) peer(site int) (*siteConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: closed")
	}
	if err := t.failed[site]; err != nil {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: site %d unreachable: %w", site, err)
	}
	if sc, ok := t.conns[site]; ok {
		t.mu.Unlock()
		return sc, nil
	}
	da, inflight := t.dialing[site]
	if !inflight {
		da = &dialAttempt{done: make(chan struct{})}
		t.dialing[site] = da
		t.wg.Add(1)
		go t.dial(site, da)
	}
	t.mu.Unlock()

	select {
	case <-da.done:
		return da.sc, da.err
	case <-t.closedCh:
		return nil, fmt.Errorf("transport: closed while dialing site %d", site)
	}
}

// dial attempts to connect to the peer with exponential backoff + jitter
// until success or the DialTimeout window closes; a window expiry declares
// the peer down. A connection that fails its handshake (Hello write or
// replay of the unacked suffix) counts as a failed attempt and re-enters
// the backoff loop — it is never published to waiting senders.
func (t *TCP) dial(site int, da *dialAttempt) {
	defer t.wg.Done()
	deadline := time.Now().Add(t.cfg.DialTimeout)
	backoff := t.cfg.BaseBackoff
	var lastErr error
	for {
		attempt := t.cfg.MaxBackoff
		if rem := time.Until(deadline); rem < attempt {
			attempt = rem
		}
		if attempt <= 0 {
			break
		}
		c, err := net.DialTimeout("tcp", t.addrs[site], attempt)
		if err == nil {
			w := &slidingConn{Conn: c, timeout: t.cfg.HeartbeatTimeout, writeTimeout: t.cfg.DialTimeout}
			sc := &siteConn{c: c, enc: gob.NewEncoder(w), done: make(chan struct{})}
			if err = t.handshake(site, sc); err == nil {
				t.finishDial(site, da, sc, nil, false)
				return
			}
			sc.close()
		}
		lastErr = err
		wait := backoff + t.jitter(backoff/2)
		if backoff < t.cfg.MaxBackoff {
			backoff *= 2
			if backoff > t.cfg.MaxBackoff {
				backoff = t.cfg.MaxBackoff
			}
		}
		if time.Now().Add(wait).After(deadline) {
			break
		}
		select {
		case <-t.closedCh:
			t.finishDial(site, da, nil, fmt.Errorf("transport: closed while dialing site %d", site), false)
			return
		case <-time.After(wait):
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dial window expired")
	}
	t.finishDial(site, da, nil, fmt.Errorf("transport: dial site %d: %w", site, lastErr), true)
}

// handshake identifies this site to the accept side (Hello) and replays the
// unacknowledged suffix of the link's stream so a reconnect loses nothing
// the kernel had buffered on the dead connection. It installs the
// connection as the link's live conn in the same critical section as the
// replay: any frame appended to the buffer after this point is encoded
// directly by its sender, so no frame can fall between replay and first use.
func (t *TCP) handshake(site int, sc *siteConn) error {
	t.mu.Lock()
	reconnect := t.everConn[site]
	t.mu.Unlock()
	lk := t.link(site)
	lk.mu.Lock()
	defer lk.mu.Unlock()
	// Hello carries the cumulative ack the replay resumes from, letting a
	// peer restarted from scratch fast-forward its expected sequence.
	if err := t.encode(sc, msg.Message{Kind: msg.Hello, From: t.site, Seq: lk.ackSeq}); err != nil {
		return err
	}
	// On a first connection the buffer holds frames sent while the dial
	// was in flight — first transmissions, not replays; only count (and
	// log) retransmissions on an actual reconnect.
	if n := len(lk.unacked); n > 0 && reconnect {
		t.cfg.Stats.Replays(n)
		t.logf("transport: site %d: replaying %d unacknowledged frame(s) to site %d", t.site, n, site)
	}
	for _, f := range lk.unacked {
		if err := t.encode(sc, f); err != nil {
			return err
		}
	}
	lk.sc = sc
	return nil
}

// finishDial publishes a dial outcome: registers the handshaken connection
// (starting its heartbeat machinery) or records the failure (declaring the
// peer down when the window expired).
func (t *TCP) finishDial(site int, da *dialAttempt, sc *siteConn, err error, declareDown bool) {
	t.mu.Lock()
	delete(t.dialing, site)
	if t.closed && sc != nil {
		t.mu.Unlock()
		t.dropPeer(site, sc)
		da.err = fmt.Errorf("transport: closed")
		close(da.done)
		return
	}
	if err != nil {
		if declareDown {
			t.failed[site] = err
			t.markDownLocked(site, err)
		}
		t.mu.Unlock()
		if declareDown {
			t.flushLink(site)
		}
		da.err = err
		close(da.done)
		return
	}
	reconnect := t.everConn[site]
	t.everConn[site] = true
	t.conns[site] = sc
	t.mu.Unlock()

	if reconnect {
		t.cfg.Stats.Reconnect()
		t.logf("transport: site %d: reconnected to site %d", t.site, site)
	}
	t.wg.Add(2)
	go t.heartbeatLoop(site, sc)
	go t.connReadLoop(site, sc)
	da.sc = sc
	close(da.done)
}

// markDownLocked emits the one-shot PeerDown event for a peer; t.mu held.
func (t *TCP) markDownLocked(site int, err error) {
	if t.downSent[site] {
		return
	}
	t.downSent[site] = true
	t.cfg.Stats.PeerDown()
	t.logf("transport: site %d: peer site %d declared down: %v", t.site, site, err)
	select {
	case t.down <- PeerDown{Site: site, Err: err}:
	default:
	}
}

// heartbeatLoop pings the peer over an established outbound connection so
// the accept side's read deadline stays satisfied and write failures
// surface within one interval of a crash.
func (t *TCP) heartbeatLoop(site int, sc *siteConn) {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-sc.done:
			return
		case <-t.closedCh:
			return
		case <-tick.C:
			if err := t.encode(sc, msg.Message{Kind: msg.Heartbeat, From: t.site}); err != nil {
				t.connLost(site, sc)
				return
			}
			t.cfg.Stats.Heartbeat()
		}
	}
}

// connReadLoop watches an established outbound connection for the peer's
// heartbeat echoes: silence past HeartbeatTimeout (sliding with each read)
// or any read error means the connection is dead. The echoes carry the
// peer's cumulative delivery ack, which prunes the replay buffer so a
// reconnect replays only frames still outstanding.
func (t *TCP) connReadLoop(site int, sc *siteConn) {
	defer t.wg.Done()
	dec := gob.NewDecoder(&slidingConn{Conn: sc.c, timeout: t.cfg.HeartbeatTimeout})
	lk := t.link(site)
	for {
		var m msg.Message
		if err := dec.Decode(&m); err != nil {
			t.connLost(site, sc)
			return
		}
		if m.Kind == msg.Heartbeat && m.Seq > 0 {
			lk.mu.Lock()
			if ack := m.Seq; ack > lk.ackSeq && ack < lk.nextSeq {
				lk.unacked = lk.unacked[ack-lk.ackSeq:]
				lk.ackSeq = ack
				if len(lk.unacked) == 0 {
					lk.unacked = nil // release the backing array when idle
				}
			}
			lk.mu.Unlock()
		}
	}
}

// connLost tears down a dead connection and, unless the transport is
// closing, re-dials in the background so failures are detected and masked
// (or declared) even when no Send is pending.
func (t *TCP) connLost(site int, sc *siteConn) {
	t.dropPeer(site, sc)
	if t.isClosed() {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.peer(site) // success re-registers the conn; failure declares the peer down
	}()
}

func (t *TCP) dropPeer(site int, sc *siteConn) {
	t.mu.Lock()
	if cur, ok := t.conns[site]; ok && cur == sc {
		delete(t.conns, site)
	}
	t.mu.Unlock()
	lk := t.link(site)
	lk.mu.Lock()
	if lk.sc == sc {
		lk.sc = nil
	}
	lk.mu.Unlock()
	sc.close()
}

// Close stops the listener and tears down peer connections. In-flight
// reads finish; subsequent sends are dropped. Per-peer drop totals are
// logged once here — the shutdown-time visibility for messages that were
// discarded because a peer was unreachable.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.closedCh)
	conns := t.conns
	t.conns = make(map[int]*siteConn)
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	drops := make(map[int]int64, len(t.dropCount))
	for site, n := range t.dropCount {
		drops[site] = n
	}
	failed := make(map[int]error, len(t.failed))
	for site, err := range t.failed {
		failed[site] = err
	}
	t.mu.Unlock()

	for site, n := range drops {
		t.logf("transport: site %d: dropped %d message(s) to site %d (%v)", t.site, n, site, failed[site])
	}
	t.ln.Close()
	for _, sc := range conns {
		sc.close()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.wg.Wait()
}
