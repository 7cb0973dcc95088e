// Per-node observability: where trace.Stats aggregates one counter set for
// a whole evaluation, a Profile shards the same quantities by rule/goal
// graph node, timestamps activity, and records a timeline of termination-
// protocol rounds. It answers the operator questions the aggregate cannot:
// WHICH node is hot (messages, rows, joins), WHERE wall-clock goes, and
// WHEN the Fig 2 protocol converged.
//
// The design keeps the hot path lock-free: each node process owns one
// NodeShard of atomic counters (node processes never contend on a shared
// word, and the send path touches only the sender's shard), and the
// snapshot is taken after the evaluation drains. Only the low-frequency
// round timeline takes a mutex.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// NodeShard is one node's counter set. All fields are updated with atomic
// operations; a shard is written by its node's process (plus the driver's
// sends attributed to the driver shard) and read at snapshot time.
type NodeShard struct {
	msgs     atomic.Int64 // basic messages sent (§3.1 vocabulary)
	protocol atomic.Int64 // Fig 2 protocol messages sent
	rowsOut  atomic.Int64 // rows carried by Tuple/TupleBatch sends
	reqRows  atomic.Int64 // bindings carried by tuple-request sends
	handled  atomic.Int64 // messages handled (mailbox receipts)
	derived  atomic.Int64 // head tuples derived (rule nodes)
	stored   atomic.Int64 // new tuples stored (goal nodes)
	dups     atomic.Int64 // duplicates discarded
	joins    atomic.Int64 // join probe candidates examined
	edbScans atomic.Int64 // EDB selections performed
	edbRows  atomic.Int64 // tuples read from the EDB
	rounds   atomic.Int64 // protocol rounds originated (component leaders)
	busyNs   atomic.Int64 // wall-clock spent handling messages
	firstNs  atomic.Int64 // first activity, ns since profile start (0 = none)
	lastNs   atomic.Int64 // latest activity, ns since profile start
}

// Per-node increment hooks, mirroring the Stats hooks.

func (s *NodeShard) Msg()          { s.msgs.Add(1) }
func (s *NodeShard) ProtocolMsg()  { s.protocol.Add(1) }
func (s *NodeShard) RowsOut(n int) { s.rowsOut.Add(int64(n)) }
func (s *NodeShard) ReqRows(n int) { s.reqRows.Add(int64(n)) }
func (s *NodeShard) Round()        { s.rounds.Add(1) }

// AddWork folds the owning process's tally into the shard (see Work).
func (s *NodeShard) AddWork(w Work) {
	add(&s.derived, w.Derived)
	add(&s.stored, w.Stored)
	add(&s.dups, w.Dups)
	add(&s.joins, w.Joins)
	add(&s.edbScans, w.EDBScans)
	add(&s.edbRows, w.EDBTuples)
}

// Handled records one handled message and its handling span: at is the
// handling start relative to the profile start, busy the wall-clock spent.
func (s *NodeShard) Handled(at, busy time.Duration) {
	s.handled.Add(1)
	s.busyNs.Add(int64(busy))
	s.firstNs.CompareAndSwap(0, int64(at)+1) // +1 so "started at exactly 0" is not "never"
	end := int64(at + busy)
	for {
		last := s.lastNs.Load()
		if end <= last || s.lastNs.CompareAndSwap(last, end) {
			return
		}
	}
}

// NodeMeta labels one shard for reports and exports.
type NodeMeta struct {
	// Label is the human-readable node description (adorned atom for goal
	// nodes, the rule for rule nodes, "driver" for the driver shard).
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

// Profile collects per-node counters for one query evaluation. Create one
// with NewProfile, pass it via the engine's Options (or mpq.WithProfile),
// and read it with Snapshot after the evaluation returns. A Profile must
// not be shared by concurrent evaluations.
type Profile struct {
	start  time.Time
	shards []NodeShard
	meta   []NodeMeta

	// workers holds the extra per-worker counter shards of hash-partitioned
	// nodes (engine.Options.Partitions), keyed by node id. Allocated
	// single-threaded during evaluation setup (WorkerShard); at snapshot
	// time each worker's counters merge into its node's NodeProfile, so the
	// per-node view stays whole however the node was sharded.
	workers map[int][]*NodeShard

	mu       sync.Mutex
	timeline []RoundMark
}

// NewProfile returns an empty profile. The engine sizes it (Init) when the
// evaluation starts.
func NewProfile() *Profile { return &Profile{} }

// Init sizes the profile for n shards (nodes plus driver) and starts its
// clock. The engine calls this once per evaluation; calling it again
// resets the profile for reuse.
func (p *Profile) Init(n int) {
	p.start = time.Now()
	p.shards = make([]NodeShard, n)
	p.meta = make([]NodeMeta, n)
	p.workers = nil
	p.mu.Lock()
	p.timeline = nil
	p.mu.Unlock()
}

// SetMeta labels shard id; the engine calls it during setup.
func (p *Profile) SetMeta(id int, m NodeMeta) { p.meta[id] = m }

// Shard returns node id's counter shard (the driver uses the last shard).
func (p *Profile) Shard(id int) *NodeShard { return &p.shards[id] }

// WorkerShard returns (allocating on first use) the counter shard of
// worker idx of node id's `of` worker shards. The engine calls it during
// evaluation setup, before any worker goroutine runs; it is not safe for
// concurrent use with itself (the shards it returns are, like all shards,
// atomic).
func (p *Profile) WorkerShard(id, idx, of int) *NodeShard {
	if p.workers == nil {
		p.workers = make(map[int][]*NodeShard)
	}
	ws := p.workers[id]
	if len(ws) != of {
		ws = make([]*NodeShard, of)
		for i := range ws {
			ws[i] = &NodeShard{}
		}
		p.workers[id] = ws
	}
	return ws[idx]
}

// Size returns the number of shards (0 before Init).
func (p *Profile) Size() int { return len(p.shards) }

// Since returns the time elapsed since Init, the profile's clock.
func (p *Profile) Since() time.Duration { return time.Since(p.start) }

// MarkRound appends to the termination-round timeline. Rounds are rare
// (one per component quiescence probe), so a mutex is fine here; the
// counter path stays lock-free.
func (p *Profile) MarkRound(node, round int, confirmed bool) {
	at := time.Since(p.start)
	p.mu.Lock()
	p.timeline = append(p.timeline, RoundMark{At: at, Node: node, Round: round, Confirmed: confirmed})
	p.mu.Unlock()
}

// NodeProfile is the immutable per-node view inside a ProfileSnapshot.
type NodeProfile struct {
	ID int
	NodeMeta
	// Msgs counts basic messages sent by this node; Protocol the Fig 2
	// messages. RowsOut / ReqRows follow the Snapshot.Messages convention:
	// batches count rows here and one message in Msgs.
	Msgs, Protocol  int64
	RowsOut         int64
	ReqRows         int64
	Handled         int64
	Derived, Stored int64
	Dups            int64
	Joins           int64
	EDBScans        int64
	EDBRows         int64
	Rounds          int64
	// Busy is wall-clock spent handling messages (includes triggered joins
	// and sends). First/Last bound the node's activity window relative to
	// the evaluation start; Last-First is the node's span, Busy/span its
	// duty cycle. For a hash-partitioned node Busy sums across the worker
	// shards, so Busy > Last-First means the shards genuinely overlapped.
	Busy        time.Duration
	First, Last time.Duration
	// Workers is the node's worker-shard count (0 = unpartitioned). The
	// counters above include the workers' contributions.
	Workers int
}

// Active reports whether the node handled any message at all.
func (n NodeProfile) Active() bool { return n.Handled > 0 || n.Msgs > 0 || n.Protocol > 0 }

// ProfileSnapshot is an immutable copy of a Profile.
type ProfileSnapshot struct {
	Elapsed time.Duration
	Nodes   []NodeProfile // graph order; the last entry is the driver
	Rounds  []RoundMark   // termination-round timeline, in mark order
}

// Snapshot copies every shard. Call it after the evaluation has returned;
// concurrent updates are safe (atomics) but the copy is then not a single
// instant.
func (p *Profile) Snapshot() ProfileSnapshot {
	snap := ProfileSnapshot{Elapsed: time.Since(p.start)}
	snap.Nodes = make([]NodeProfile, len(p.shards))
	for i := range p.shards {
		np := shardProfile(&p.shards[i])
		np.ID = i
		np.NodeMeta = p.meta[i]
		for _, ws := range p.workers[i] {
			mergeShard(&np, shardProfile(ws))
		}
		np.Workers = len(p.workers[i])
		snap.Nodes[i] = np
	}
	p.mu.Lock()
	snap.Rounds = append([]RoundMark(nil), p.timeline...)
	p.mu.Unlock()
	return snap
}

// shardProfile reads one shard's counters into a NodeProfile (meta and ID
// left for the caller).
func shardProfile(s *NodeShard) NodeProfile {
	first := s.firstNs.Load()
	if first > 0 {
		first-- // undo the +1 encoding of Handled
	}
	return NodeProfile{
		Msgs:     s.msgs.Load(),
		Protocol: s.protocol.Load(),
		RowsOut:  s.rowsOut.Load(),
		ReqRows:  s.reqRows.Load(),
		Handled:  s.handled.Load(),
		Derived:  s.derived.Load(),
		Stored:   s.stored.Load(),
		Dups:     s.dups.Load(),
		Joins:    s.joins.Load(),
		EDBScans: s.edbScans.Load(),
		EDBRows:  s.edbRows.Load(),
		Rounds:   s.rounds.Load(),
		Busy:     time.Duration(s.busyNs.Load()),
		First:    time.Duration(first),
		Last:     time.Duration(s.lastNs.Load()),
	}
}

// mergeShard folds a worker shard's counters into its node's profile:
// counters and busy-time sum, the activity window widens.
func mergeShard(np *NodeProfile, w NodeProfile) {
	if w.Handled > 0 {
		if np.Handled == 0 || w.First < np.First {
			np.First = w.First
		}
		if w.Last > np.Last {
			np.Last = w.Last
		}
	}
	np.Msgs += w.Msgs
	np.Protocol += w.Protocol
	np.RowsOut += w.RowsOut
	np.ReqRows += w.ReqRows
	np.Handled += w.Handled
	np.Derived += w.Derived
	np.Stored += w.Stored
	np.Dups += w.Dups
	np.Joins += w.Joins
	np.EDBScans += w.EDBScans
	np.EDBRows += w.EDBRows
	np.Rounds += w.Rounds
	np.Busy += w.Busy
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
		sp.Msgs += n.Msgs
		sp.Protocol += n.Protocol
		sp.RowsOut += n.RowsOut
		sp.Joins += n.Joins
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
	Msgs        int64
	Protocol    int64
	RowsOut     int64
	Joins       int64
	Busy        time.Duration
}

func sortedInts(xs []int) []int {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}
