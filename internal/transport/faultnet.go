package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
)

// FaultNet wraps a Network with deterministic, seeded fault injection, for
// chaos tests and the mpqd -chaos flag. Faults are expressed against the
// *site* topology (hosts maps node ids to sites, as in engine.RunSites):
//
//   - per-link latency and jitter: messages from site A to site B are
//     delivered after Delay + seeded-random jitter, preserving per-link
//     FIFO order (a dedicated worker delivers each link's queue in order);
//   - connection cuts: after CutAfter messages have crossed a link, the
//     link is broken for good — it drops everything from then on and a
//     PeerDown names its far end, as a broken TCP connection would;
//   - whole-site crashes: immediately (CrashNow) or after the site has
//     sent AfterSends messages (AddCrash), every message to or from the
//     site is dropped, the registered OnCrash callback runs (tests use it
//     to close the site's mailboxes, simulating process death), and a
//     PeerDown event is emitted on Down() — FaultNet doubles as a perfect
//     failure detector, mirroring what TCP heartbeats provide for real
//     sockets.
//
// All randomness comes from the constructor seed, so a chaos schedule
// replays identically for a given seed and message order. Dropped messages
// are counted in Stats (FaultDrops), never lost silently.
type FaultNet struct {
	inner Network
	hosts []int
	// Stats receives FaultDrop counts; defaults to a fresh Stats. Set it
	// before the first Send.
	Stats *trace.Stats

	mu      sync.Mutex
	rng     *rand.Rand
	rules   []LinkFault
	links   map[[2]int]*linkState
	crashAt map[int]int // site → crash once sends exceed this count
	sent    map[int]int // messages sent per site
	crashed map[int]bool
	onCrash map[int]func()

	down     chan PeerDown
	closedCh chan struct{}
	closed   bool
	wg       sync.WaitGroup
}

// LinkFault is one fault rule for the ordered site pair From→To. From
// and/or To may be AnySite. Rules are matched in the order they were
// added; the first match governs a link.
type LinkFault struct {
	From, To int
	// Delay and Jitter add latency: each message is delivered
	// Delay + uniform[0, Jitter) after it was sent, in FIFO order per link.
	Delay, Jitter time.Duration
	// CutAfter cuts the link once this many messages have crossed it
	// (0 = never): the far end is reported down, and this and every later
	// message on the link is dropped.
	CutAfter int
}

// AnySite is the LinkFault wildcard for From or To.
const AnySite = -1

// SiteCrash schedules a whole-site crash: the site's AfterSends-th send
// succeeds, and every message it sends or receives after that is dropped.
type SiteCrash struct {
	Site       int
	AfterSends int
}

// linkState is the runtime state of one concrete ordered site pair that
// matched a rule.
type linkState struct {
	rule    LinkFault
	crossed int
	cut     bool

	// Delay queue (only when rule.Delay or rule.Jitter is set).
	qmu    sync.Mutex
	qcond  *sync.Cond
	q      []delayedMsg
	closed bool
}

type delayedMsg struct {
	m   msg.Message
	due time.Time
}

// NewFaultNet wraps inner. hosts maps every node id (driver included) to
// its site; seed drives all injected randomness.
func NewFaultNet(inner Network, hosts []int, seed int64) *FaultNet {
	return &FaultNet{
		inner:    inner,
		hosts:    hosts,
		Stats:    &trace.Stats{},
		rng:      rand.New(rand.NewSource(seed)),
		links:    make(map[[2]int]*linkState),
		crashAt:  make(map[int]int),
		sent:     make(map[int]int),
		crashed:  make(map[int]bool),
		onCrash:  make(map[int]func()),
		down:     make(chan PeerDown, len(hosts)+1),
		closedCh: make(chan struct{}),
	}
}

// AddLink appends one link fault rule.
func (f *FaultNet) AddLink(r LinkFault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
}

// AddCrash schedules a site crash after the site has sent the given number
// of messages.
func (f *FaultNet) AddCrash(c SiteCrash) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt[c.Site] = c.AfterSends
}

// OnCrash registers a callback run (once, in its own goroutine) when the
// site crashes. Tests use it to close the site's mailboxes or transport,
// completing the simulation of a dead process.
func (f *FaultNet) OnCrash(site int, fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onCrash[site] = fn
}

// CrashNow crashes the site immediately.
func (f *FaultNet) CrashNow(site int) {
	f.mu.Lock()
	fn := f.crashLocked(site)
	f.mu.Unlock()
	if fn != nil {
		go fn()
	}
}

// crashLocked marks the site dead and returns its callback (nil if none or
// already crashed); f.mu held.
func (f *FaultNet) crashLocked(site int) func() {
	if f.crashed[site] {
		return nil
	}
	f.crashed[site] = true
	f.downLocked(site, fmt.Errorf("faultnet: site %d crashed", site))
	return f.onCrash[site]
}

// downLocked reports a site down, one copy per site of the topology:
// in-process harnesses run every site against this one channel, a site
// stops reading after its first event, and the site reported may itself be
// among the readers; f.mu held.
func (f *FaultNet) downLocked(site int, err error) {
	for range slices.Max(f.hosts) + 1 {
		select {
		case f.down <- PeerDown{Site: site, Err: err}:
		default:
		}
	}
}

// Down reports each crashed site and the far end of each cut link, once per
// site of the topology — the perfect-failure-detector view of the injected
// schedule. Wire it into engine.Options.PeerDown to test abort-on-failure
// without real sockets.
func (f *FaultNet) Down() <-chan PeerDown { return f.down }

// Send applies the fault schedule to one message: drop it (crashed site or
// cut link), delay it (latency rule), or pass it through.
func (f *FaultNet) Send(m msg.Message) {
	from, to := f.hosts[m.From], f.hosts[m.To]

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	// Crash-after accounting: the site's configured number of sends
	// succeeds; the next one triggers the crash and is lost with it.
	f.sent[from]++
	var crashFn func()
	if limit, ok := f.crashAt[from]; ok && !f.crashed[from] && f.sent[from] > limit {
		crashFn = f.crashLocked(from)
	}
	if f.crashed[from] || f.crashed[to] {
		f.Stats.FaultDrop()
		f.mu.Unlock()
		if crashFn != nil {
			go crashFn()
		}
		return
	}
	ls := f.linkLocked(from, to)
	if ls == nil {
		f.mu.Unlock()
		f.inner.Send(m)
		return
	}
	ls.crossed++
	if !ls.cut && ls.rule.CutAfter > 0 && ls.crossed > ls.rule.CutAfter {
		ls.cut = true
		f.downLocked(to, fmt.Errorf("faultnet: link %d-%d cut", from, to))
	}
	if ls.cut {
		f.Stats.FaultDrop()
		f.mu.Unlock()
		return
	}
	if ls.rule.Delay <= 0 && ls.rule.Jitter <= 0 {
		f.mu.Unlock()
		f.inner.Send(m)
		return
	}
	d := ls.rule.Delay
	if ls.rule.Jitter > 0 {
		d += time.Duration(f.rng.Int63n(int64(ls.rule.Jitter)))
	}
	f.mu.Unlock()

	ls.qmu.Lock()
	ls.q = append(ls.q, delayedMsg{m: m, due: time.Now().Add(d)})
	ls.qcond.Signal()
	ls.qmu.Unlock()
}

// linkLocked resolves (and lazily creates) the link state for the ordered
// site pair, or nil when no rule matches; f.mu held.
func (f *FaultNet) linkLocked(from, to int) *linkState {
	key := [2]int{from, to}
	if ls, ok := f.links[key]; ok {
		return ls
	}
	for _, r := range f.rules {
		if (r.From == AnySite || r.From == from) && (r.To == AnySite || r.To == to) {
			ls := &linkState{rule: r}
			ls.qcond = sync.NewCond(&ls.qmu)
			f.links[key] = ls
			if r.Delay > 0 || r.Jitter > 0 {
				f.wg.Add(1)
				go f.deliverLoop(ls)
			}
			return ls
		}
	}
	f.links[key] = nil
	return nil
}

// deliverLoop delivers one link's delayed queue in FIFO order, sleeping
// until each message's due time — later messages never overtake earlier
// ones, preserving the per-sender ordering the engine's accounting needs.
func (f *FaultNet) deliverLoop(ls *linkState) {
	defer f.wg.Done()
	for {
		ls.qmu.Lock()
		for len(ls.q) == 0 && !ls.closed {
			ls.qcond.Wait()
		}
		if len(ls.q) == 0 {
			ls.qmu.Unlock()
			return
		}
		d := ls.q[0]
		ls.q = ls.q[1:]
		ls.qmu.Unlock()
		if wait := time.Until(d.due); wait > 0 {
			select {
			case <-f.closedCh:
				return
			case <-time.After(wait):
			}
		}
		f.inner.Send(d.m)
	}
}

// Close stops the delay workers; pending delayed messages are dropped.
func (f *FaultNet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	close(f.closedCh)
	links := make([]*linkState, 0, len(f.links))
	for _, ls := range f.links {
		if ls != nil {
			links = append(links, ls)
		}
	}
	f.mu.Unlock()
	for _, ls := range links {
		ls.qmu.Lock()
		ls.closed = true
		ls.qcond.Broadcast()
		ls.qmu.Unlock()
	}
	f.wg.Wait()
}

// ParseChaos parses the mpqd -chaos specification: semicolon-separated
// directives, sites given as integers or * (any):
//
//	delay:FROM-TO:BASE[:JITTER]   e.g. delay:0-1:5ms:2ms
//	cut:FROM-TO:N                 e.g. cut:*-2:100
//	crash:SITE:N                  e.g. crash:1:500
func ParseChaos(spec string) (links []LinkFault, crashes []SiteCrash, err error) {
	for _, dir := range strings.Split(spec, ";") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		parts := strings.Split(dir, ":")
		bad := func(why string) error { return fmt.Errorf("transport: chaos directive %q: %s", dir, why) }
		switch parts[0] {
		case "delay":
			if len(parts) < 3 || len(parts) > 4 {
				return nil, nil, bad("want delay:FROM-TO:BASE[:JITTER]")
			}
			from, to, err := parseSitePair(parts[1])
			if err != nil {
				return nil, nil, bad(err.Error())
			}
			base, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, nil, bad(err.Error())
			}
			r := LinkFault{From: from, To: to, Delay: base}
			if len(parts) == 4 {
				if r.Jitter, err = time.ParseDuration(parts[3]); err != nil {
					return nil, nil, bad(err.Error())
				}
			}
			links = append(links, r)
		case "cut":
			if len(parts) != 3 {
				return nil, nil, bad("want cut:FROM-TO:N")
			}
			from, to, err := parseSitePair(parts[1])
			if err != nil {
				return nil, nil, bad(err.Error())
			}
			n, err := strconv.Atoi(parts[2])
			if err != nil || n <= 0 {
				return nil, nil, bad("cut count must be a positive integer")
			}
			links = append(links, LinkFault{From: from, To: to, CutAfter: n})
		case "crash":
			if len(parts) != 3 {
				return nil, nil, bad("want crash:SITE:N")
			}
			site, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, nil, bad("crash site must be an integer")
			}
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 {
				return nil, nil, bad("crash send count must be a non-negative integer")
			}
			crashes = append(crashes, SiteCrash{Site: site, AfterSends: n})
		default:
			return nil, nil, bad("unknown directive (want delay, cut, or crash)")
		}
	}
	return links, crashes, nil
}

func parseSitePair(s string) (from, to int, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("want FROM-TO, got %q", s)
	}
	if from, err = parseSite(a); err != nil {
		return 0, 0, err
	}
	if to, err = parseSite(b); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

func parseSite(s string) (int, error) {
	if s == "*" {
		return AnySite, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("site must be an integer or *, got %q", s)
	}
	return n, nil
}
