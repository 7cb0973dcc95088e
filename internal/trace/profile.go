// Per-node observability: where trace.Stats aggregates one counter set for
// a whole evaluation, a Profile keeps the same quantities per rule/goal
// graph node, times each node's activity, and records a timeline of
// termination-protocol rounds. It answers the operator questions the
// aggregate cannot: WHICH node is hot (messages, rows, joins), WHERE
// wall-clock goes, and WHEN the Fig 2 protocol converged.
//
// The profile counts nothing itself: each node process keeps one Tally, and
// the engine hands the evaluation's tallies over when it ends (End). While
// it runs, the site's run loop records each handled message — its node's
// busy time and activity window and, when armed, the span ring: an opt-in,
// bounded record of every handled message and when it ran, which the
// exporters render as a text trace (mpq -trace) or as Chrome trace_event
// JSON (mpq -trace-out). The ring never grows past its capacity, so tracing
// a runaway query costs bounded memory; the newest spans win and the
// snapshot reports how many older ones were overwritten.
package trace

import (
	"sync"
	"time"
)

// NodeMeta labels one node for reports and exports.
type NodeMeta struct {
	// Label is the human-readable node description (adorned atom for goal
	// nodes, the rule for rule nodes, "driver" for the driver).
	Label string
	// Kind is "goal", "rule", "edb", "variant", or "driver".
	Kind string
	// Site is the hosting site id (0 for in-process evaluation).
	Site int
}

// RoundMark is one entry of the termination-protocol timeline: a protocol
// round originated (or concluded) at a component leader.
type RoundMark struct {
	At        time.Duration // since profile start
	Node      int           // the component leader's node id
	Round     int           // the leader's round number
	Confirmed bool          // true when this round confirmed quiescence
}

// Span is one handled message: node Node handled a message of Kind (a
// msg.Kind) from node From, carrying Rows rows, starting At after Init and
// busy for Dur — including every join, derivation and send it triggered.
type Span struct {
	At, Dur    time.Duration
	Node, From int
	Kind       uint8
	Rows       int
}

// DefaultSpanCap is the ring capacity RecordSpans(0) selects: enough for
// every message of a mid-size query, bounded for runaway ones.
const DefaultSpanCap = 1 << 16

// Profile collects per-node counters for one query evaluation. Create one
// with NewProfile, pass it via the engine's Options (or mpq.WithProfile),
// and read it with Snapshot after the evaluation returns. A Profile must
// not be shared by concurrent evaluations: its writer is the run loop.
type Profile struct {
	start   time.Time
	elapsed time.Duration // stamped by End
	nodes   []NodeProfile

	// mu guards the round timeline and the span ring. ring is fixed-size
	// once RecordSpans armed it (nil otherwise); nspans counts the spans
	// recorded since Init, so slot nspans%len(ring) is the next to write.
	mu       sync.Mutex
	timeline []RoundMark
	ring     []Span
	nspans   int
}

// NewProfile returns an empty profile. The engine sizes it (Init) when the
// evaluation starts.
func NewProfile() *Profile { return &Profile{} }

// Init sizes the profile for n nodes (graph nodes plus the driver) and
// starts its clock. The engine calls this once per evaluation; calling it
// again resets the profile for reuse.
func (p *Profile) Init(n int) {
	p.start = time.Now()
	p.elapsed = 0
	p.nodes = make([]NodeProfile, n)
	for i := range p.nodes {
		p.nodes[i].ID = i
	}
	p.mu.Lock()
	p.timeline = nil
	p.nspans = 0
	p.mu.Unlock()
}

// RecordSpans arms the span ring: from now on every handled message is also
// kept as a Span, the newest capacity of them (0 selects DefaultSpanCap).
// Call it before the evaluation; it stays armed across Init. Recording takes
// one short mutex-protected write per handled message, so it is meant for
// diagnosis, not for benchmark paths.
func (p *Profile) RecordSpans(capacity int) {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	p.mu.Lock()
	p.ring = make([]Span, capacity)
	p.nspans = 0
	p.mu.Unlock()
}

// SetMeta labels node id; the engine calls it during setup.
func (p *Profile) SetMeta(id int, m NodeMeta) { p.nodes[id].NodeMeta = m }

// Size returns the number of nodes, the driver included (0 before Init).
func (p *Profile) Size() int { return len(p.nodes) }

// Since returns the time elapsed since Init, the profile's clock.
func (p *Profile) Since() time.Duration { return time.Since(p.start) }

// Handled records one handled message: its time goes to the handling node
// and, when RecordSpans armed the ring, the span into the ring.
func (p *Profile) Handled(s Span) {
	n := &p.nodes[s.Node]
	if n.Handled == 0 {
		n.First = s.At
	}
	n.Handled++
	n.Busy += s.Dur
	n.Last = max(n.Last, s.At+s.Dur)
	if p.ring == nil {
		return
	}
	p.mu.Lock()
	p.ring[p.nspans%len(p.ring)] = s
	p.nspans++
	p.mu.Unlock()
}

// MarkRound appends to the termination-round timeline. Rounds are rare
// (one per component quiescence probe), so a mutex is fine here.
func (p *Profile) MarkRound(node, round int, confirmed bool) {
	at := time.Since(p.start)
	p.mu.Lock()
	p.timeline = append(p.timeline, RoundMark{At: at, Node: node, Round: round, Confirmed: confirmed})
	p.mu.Unlock()
}

// End closes the evaluation: it stamps the elapsed time and copies the
// nodes' tallies, indexed by node id like the profile. The engine calls it
// once, when the evaluation ends — also when it was aborted.
func (p *Profile) End(tallies []Tally) {
	p.elapsed = time.Since(p.start)
	for i, t := range tallies {
		p.nodes[i].Tally = t
	}
}

// NodeProfile is the immutable per-node view inside a ProfileSnapshot: the
// node's labels, its Tally, and what the run loop recorded of the messages
// it handled. Handled counts them; Busy is the wall-clock spent handling
// them (including triggered joins and sends). First/Last bound the node's
// activity window relative to the evaluation start; Last-First is the
// node's span, Busy/span its duty cycle.
type NodeProfile struct {
	ID int
	NodeMeta
	Tally
	Handled     int64
	Busy        time.Duration
	First, Last time.Duration
}

// Active reports whether the node handled or sent any message at all.
func (n NodeProfile) Active() bool { return n.Handled > 0 || n.Messages() > 0 || n.Protocol > 0 }

// ProfileSnapshot is an immutable copy of a Profile.
type ProfileSnapshot struct {
	// Elapsed is the evaluation's wall-clock time, from Init to End.
	Elapsed time.Duration
	Nodes   []NodeProfile // graph order; the last entry is the driver
	Rounds  []RoundMark   // termination-round timeline, in mark order
	// Spans holds the span ring's handled messages oldest-first (nil unless
	// RecordSpans armed it); Dropped counts the older spans it overwrote.
	Spans   []Span
	Dropped int
}

// Snapshot copies the profile. Call it after the evaluation has returned.
func (p *Profile) Snapshot() ProfileSnapshot {
	snap := ProfileSnapshot{Elapsed: p.elapsed, Nodes: append([]NodeProfile(nil), p.nodes...)}
	p.mu.Lock()
	snap.Rounds = append([]RoundMark(nil), p.timeline...)
	if p.ring != nil {
		if p.nspans <= len(p.ring) {
			snap.Spans = append([]Span{}, p.ring[:p.nspans]...)
		} else {
			head := p.nspans % len(p.ring) // the oldest retained span's slot
			snap.Spans = append(append(make([]Span, 0, len(p.ring)), p.ring[head:]...), p.ring[:head]...)
			snap.Dropped = p.nspans - len(p.ring)
		}
	}
	p.mu.Unlock()
	return snap
}

// Sites aggregates the snapshot by hosting site, in site order.
func (ps ProfileSnapshot) Sites() []SiteProfile {
	bySite := map[int]*SiteProfile{}
	var order []int
	for _, n := range ps.Nodes {
		sp, ok := bySite[n.Site]
		if !ok {
			sp = &SiteProfile{Site: n.Site}
			bySite[n.Site] = sp
			order = append(order, n.Site)
		}
		sp.Nodes++
		if n.Active() {
			sp.ActiveNodes++
		}
		sp.Tally.Add(n.Tally)
		sp.Busy += n.Busy
	}
	out := make([]SiteProfile, 0, len(order))
	for _, s := range sortedInts(order) {
		out = append(out, *bySite[s])
	}
	return out
}

// SiteProfile aggregates the per-node counters of one site.
type SiteProfile struct {
	Site        int
	Nodes       int
	ActiveNodes int
	Tally
	Busy time.Duration
}

func sortedInts(xs []int) []int {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}
