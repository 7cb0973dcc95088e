// Package engine evaluates queries by message-controlled computation (§3):
// every rule/goal graph node becomes a process owning private state and a
// FIFO mailbox; processes exchange relation requests, tuple requests,
// tuples, and end messages; recursive components terminate via the Fig 2
// protocol run over each component's breadth-first spanning tree.
//
// No state is shared between node processes — all coordination is by
// message, so the same engine runs over in-process mailboxes or the TCP
// transport (see RunSites and transport.TCP). Which process handles its next
// message is ours to choose: one run loop per (evaluation, site), on the
// goroutine that called Run (see runner.loop); an evaluation starts no
// goroutine of its own.
//
// # Completion accounting
//
// The paper specifies end messages per request but leaves the bookkeeping
// implicit. This engine uses watermarks on cross-component edges: a feeder
// sends End{N} to its customer meaning "the first N tuple requests you sent
// are fully serviced, and every answer preceded this End". Per-sender FIFO
// delivery makes the claim checkable locally. Edges inside a strong
// component carry no end messages at all; component quiescence is detected
// by the Fig 2 protocol, after which the component's leader advances its
// own watermark to its customer. A node whose adornment has no "d"
// positions has exactly one implicit request and completes with End{All}.
// See DESIGN.md for the full soundness argument.
package engine

import (
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/edb"
	"repro/internal/msg"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Result is a completed query evaluation.
type Result struct {
	// Answers holds the goal tuples, one column per goal argument, when the
	// evaluation was run without a yield; under a yield it is nil, the
	// tuples having gone to the yield only.
	Answers *relation.Relation
	// Stats snapshots the execution counters.
	Stats trace.Snapshot
}

// Options tune an evaluation. The zero value is ready to use.
type Options struct {
	// Stats, when non-nil, receives the execution counters (useful for
	// aggregating across runs), all at once when the evaluation ends —
	// also when it is aborted. A fresh Stats is used otherwise.
	Stats *trace.Stats
	// EDBDelay simulates per-retrieval latency (disk or a remote store) at
	// each EDB leaf scan and base-subgoal tuple request: sites overlap these
	// waits, one run loop cannot. Zero (the default) disables it.
	EDBDelay time.Duration
	// Deadline, when positive, bounds the evaluation in wall-clock time:
	// when it expires the query is aborted everywhere (an Abort message goes
	// to every other site) and Run/RunSites return ErrDeadline instead of
	// hanging. It takes effect when the step in progress ends.
	Deadline time.Duration
	// Cancel, when non-nil, aborts the evaluation when closed; Run returns
	// ErrCancelled. (RunStream's yield-false is still the graceful early
	// exit; Cancel is the emergency stop usable from any goroutine.)
	Cancel <-chan struct{}
	// PeerDown, when non-nil, delivers transport failure events
	// (transport.TCP.Down or transport.FaultNet.Down). The first event
	// aborts the query and RunSites returns ErrSiteDown. Each site should
	// pass its own transport's channel so that every site unblocks even if
	// Abort messages to it are lost.
	PeerDown <-chan transport.PeerDown
	// Profile, when non-nil, collects per-node counters (messages, rows,
	// joins, wall-time per rule/goal node) plus the termination-round
	// timeline, and every handled message's span when its ring is armed
	// (Profile.RecordSpans); render it with internal/trace/export. The
	// engine sizes and labels the profile itself. Multi-site runs profile
	// per site: each RunSites call observes the nodes its site hosts.
	// Disabled (nil), the only cost is one nil check per message.
	Profile *trace.Profile
	// Bind supplies runtime values for the root goal's "d" (dynamically
	// bound) argument positions, in position order: the driver seeds the
	// evaluation with one tuple request carrying them, between the initial
	// relation request and the request-end. This is how a prepared query
	// re-drives a compiled graph with new constants (see rgg.Options.RootAd).
	// Its length must equal the root's number of "d" positions — zero for
	// ordinary all-free roots.
	Bind []symtab.Sym
	// Deprecated: ignored; evaluation is never sharded. Kept only because
	// benchmark/ still references it; removed with ROADMAP item 1's
	// [benchmark] PR.
	Partitions int
	// pick is the scheduling seam (see runner.pick); tests seed it.
	pick func(n int) int
}

// Run evaluates the graph's query against the database with every node
// process in this OS process, communicating over in-process mailboxes.
func Run(g *rgg.Graph, db edb.Storage, opts Options) (*Result, error) {
	return RunStream(g, db, opts, nil)
}

// RunStream is Run with answer streaming: yield is invoked for each goal
// tuple as it arrives, in derivation order ("answer tuples come trickling
// in throughout the computation", §3.1), each tuple once. The tuple's
// memory is the caller's to keep. Returning false ends the evaluation
// early, without error. Under a yield the Result carries the Stats only:
// its Answers is nil. A nil yield collects the answers into
// Result.Answers, as Run does.
func RunStream(g *rgg.Graph, db edb.Storage, opts Options, yield func(relation.Tuple) bool) (*Result, error) {
	return NewPlan(g, db).RunStream(opts, yield)
}

// RunSites evaluates the graph with node processes partitioned across
// several sites connected by the given networks (typically transport.TCP).
// hosts maps each node id — and the driver id, len(g.Nodes) — to a site.
// Every nontrivial strong component must be co-located on one site (see
// Partition); RunSites returns an error otherwise.
//
// Each participating site calls RunSites with its own site id and network;
// the call on the driver's site returns the Result, all others return
// (nil, nil) once the driver's site released them.
func RunSites(g *rgg.Graph, db edb.Storage, net transport.Network, local *transport.Local,
	hosts []int, site int, opts Options) (*Result, error) {
	if len(hosts) != len(g.Nodes)+1 {
		return nil, fmt.Errorf("engine: hosts has %d entries, want %d (nodes + driver)", len(hosts), len(g.Nodes)+1)
	}
	for _, members := range g.SCCs {
		if len(members) == 1 {
			continue
		}
		for _, m := range members {
			if hosts[m] != hosts[members[0]] {
				return nil, fmt.Errorf("engine: strong component split across sites %d and %d; co-locate recursive components", hosts[m], hosts[members[0]])
			}
		}
	}
	if !slices.Contains(hosts, site) {
		return nil, nil // nothing hosted here: no message would ever release this site
	}
	pl := NewPlan(g, db)
	return pl.runOn(pl.siteScratch(net, local, hosts, site), opts, false, false, nil)
}

// Partition assigns graph nodes to sites such that each nontrivial strong
// component stays on one site. The driver and root go to site 0; remaining
// components round-robin across sites by component.
func Partition(g *rgg.Graph, sites int) []int {
	hosts := make([]int, len(g.Nodes)+1)
	hosts[len(g.Nodes)] = 0 // driver
	next := 0
	sccSite := make([]int, len(g.SCCs))
	for i := range sccSite {
		sccSite[i] = -1
	}
	sccSite[g.Nodes[g.Root].SCC] = 0
	for id := range g.Nodes {
		scc := g.Nodes[id].SCC
		if sccSite[scc] == -1 {
			sccSite[scc] = next % sites
			next++
		}
		hosts[id] = sccSite[scc]
	}
	return hosts
}

// runner is one site's share of one evaluation: the immutable context its
// node processes share (the graph, the read-only database, the network, the
// stats sink) and the run loop that steps them. Mutable evaluation state
// lives inside each proc.
type runner struct {
	g        *rgg.Graph
	db       edb.Storage
	net      transport.Network
	stats    *trace.Stats
	driver   int // driver's node id: len(g.Nodes)
	bind     []symtab.Sym
	edbDelay time.Duration
	// tallies holds one plain counter set per node id, the driver's last
	// (the scratch's, zeroed by Plan.bind): each hosted process counts into
	// its own, and run folds them into stats, and hands them to prof, once
	// the evaluation ends.
	tallies []trace.Tally
	// prof, nil when disabled, records the rounds and the handled messages.
	prof *trace.Profile
	// frames is the scratch's free list of row buffers (see recycle).
	frames *frames

	// local is the Local transport hosting this site's mailboxes.
	local *transport.Local

	// The run loop's side: hub lists the hosted mailboxes (the driver's too,
	// on its site) that hold mail; procs are the hosted processes by node id,
	// nil for nodes hosted elsewhere and for base subgoals joined in place.
	// pick is the one scheduling decision — which of the n processes with
	// mail steps next — nil meaning the one that has waited longest.
	hub   *transport.Hub
	procs []*proc
	pick  func(n int) int

	// hosts/site describe the node→site partition for multi-site runs (nil
	// hosts means everything is local). abortErr records the first abort's
	// typed error; the loop looks at it between steps. cancel, peerDown and
	// deadline are the caller's abort sources (Options), which the loop polls
	// itself — no watchdog goroutine — and expired closes at the deadline.
	hosts    []int
	site     int
	abortErr error
	cancel   <-chan struct{}
	peerDown <-chan transport.PeerDown
	deadline time.Duration
	expired  <-chan struct{}

	// delta marks a delta round of an Incremental evaluation: node state is
	// retained from the previous round, base selections seed only their
	// delta windows, and RelReq handlers skip the late-registration replay
	// (the customer already holds everything stored). False for ordinary
	// runs. retain marks every round of an Incremental: the processes
	// outlive the run, so a later round may probe what this one stores.
	delta, retain bool
}

// newRunner starts an evaluation's runner over scratch s (see Plan.bind).
func newRunner(g *rgg.Graph, db edb.Storage, opts Options, s *scratch) (*runner, error) {
	stats := opts.Stats
	if stats == nil {
		stats = &trace.Stats{}
	}
	if w := len(dynamicPositions(g.Nodes[g.Root].Ad)); len(opts.Bind) != w {
		return nil, fmt.Errorf("engine: Bind has %d values, root has %d dynamic positions", len(opts.Bind), w)
	}
	rt := &runner{g: g, db: db, net: s.net, stats: stats, driver: len(g.Nodes), tallies: s.tallies,
		bind: opts.Bind, edbDelay: opts.EDBDelay, prof: opts.Profile, frames: &s.frames, pick: opts.pick,
		local: s.local, hub: s.hub, procs: s.procs, hosts: s.hosts, site: s.site,
		cancel: opts.Cancel, peerDown: opts.PeerDown, deadline: opts.Deadline}
	if rt.prof != nil {
		rt.initProfile()
	}
	return rt, nil
}

// initProfile sizes the profile for this graph and labels every node with
// the node's adorned atom, kind, and hosting site, so exports and reports
// are readable without the graph in hand.
func (rt *runner) initProfile() {
	rt.prof.Init(rt.driver + 1)
	site := func(id int) int {
		if rt.hosts != nil {
			return rt.hosts[id]
		}
		return 0
	}
	for id, nd := range rt.g.Nodes {
		kind := "rule"
		switch {
		case nd.Kind == rgg.Goal && nd.EDB:
			kind = "edb"
		case nd.Kind == rgg.Goal && nd.CycleTo != rgg.NoNode:
			kind = "variant"
		case nd.Kind == rgg.Goal:
			kind = "goal"
		}
		rt.prof.SetMeta(id, trace.NodeMeta{Label: nd.Adorned().String(), Kind: kind, Site: site(id)})
	}
	rt.prof.SetMeta(rt.driver, trace.NodeMeta{Label: "driver", Kind: "driver", Site: site(rt.driver)})
}

// edbIndexNeeds lists the composite indexes evaluation probes on the base
// relations, read off the compiled selections: a tuple request binds the
// constants and "d" positions, a join step over a base subgoal the
// constants and the columns bound before it (an all-bound step tests
// membership, needing none). Select probes the index over exactly that
// column set (ascending); single columns are warmed unconditionally.
func edbIndexNeeds(g *rgg.Graph, db edb.Storage) []edb.IndexNeed {
	var needs []edb.IndexNeed
	add := func(sel *baseSel, cols []int) {
		for i, v := range sel.consts {
			if v != symtab.NoSym {
				cols = append(cols, i)
			}
		}
		if slices.Sort(cols); len(cols) >= 2 {
			needs = append(needs, edb.IndexNeed{Key: sel.key, Cols: slices.Compact(cols)})
		}
	}
	for _, n := range g.Nodes {
		if n.EDB && !inPlace(n) {
			sel := newBaseSel(n.Atom, n.Ad, db)
			add(sel, slices.Clone(sel.dPos))
		} else if n.Kind == rgg.Rule {
			r := newRuleState(g, n, db)
			for _, s := range r.subs {
				if s.sel != nil {
					add(s.sel, slices.Clone(s.sel.dPos))
				}
			}
			for _, pl := range slices.Concat(r.plans...) {
				for _, st := range pl.steps {
					if cols := []int(nil); st.sub != nil && len(st.fresh) > 0 {
						for _, cs := range st.bound {
							cols = append(cols, cs.col)
						}
						add(st.sub.sel, cols)
					}
				}
			}
		}
	}
	return needs
}

// drives reports whether the driver (the user process) is hosted here.
func (rt *runner) drives() bool {
	return rt.hosts == nil || rt.hosts[rt.driver] == rt.site
}

// run executes this site's share of the evaluation on the calling goroutine:
// the Result on the driver's site, (nil, nil) elsewhere, the abort on either.
// A nil yield is the one place answers are collected: the driver's site
// passes the loop a yield that inserts each goal tuple into the Result's
// relation. Any other yield is the answers' only destination.
func (rt *runner) run(yield func(relation.Tuple) bool) (*Result, error) {
	drives := rt.drives()
	var answers *relation.Relation
	if yield == nil && drives {
		answers = relation.New(len(rt.g.Nodes[rt.g.Root].Atom.Args))
		yield = func(t relation.Tuple) bool {
			answers.Insert(t)
			return true
		}
	}
	rt.loop(yield)
	err := rt.abortError()
	if err == nil && drives && rt.hosts != nil {
		// Release the other sites: one Shutdown each, to the first node it
		// hosts. A site leaves its loop at its first Shutdown and may close
		// its transport right away, so a second one would find it gone.
		released := map[int]bool{rt.site: true}
		for id := range rt.g.Nodes {
			if s := rt.hosts[id]; !released[s] {
				released[s] = true
				rt.send(msg.Message{Kind: msg.Shutdown, From: rt.driver, To: id})
			}
		}
	}
	// The end-of-evaluation fold, on every path: the evaluation touches the
	// shared stats here and nowhere else.
	var sum trace.Tally
	for _, t := range rt.tallies {
		sum.Add(t)
	}
	rt.stats.Add(sum)
	rt.stats.DroppedPuts(rt.local.Dropped())
	if err != nil {
		rt.stats.Abort()
	}
	if rt.delta {
		rt.stats.DeltaRound()
	}
	if rt.prof != nil {
		rt.prof.End(rt.tallies)
	}
	if err != nil || !drives {
		return nil, err
	}
	return &Result{Answers: answers, Stats: rt.stats.Snapshot()}, nil
}

// loop is the control strategy: it plays the user process (the top-level
// relation request, then goal tuples until the root's final end) and steps
// the hosted node processes one message at a time, whichever rt.pick chooses
// among those with mail — Query-Subquery Nets proves such a net sound and
// complete under every control strategy, so the choice only moves
// wall-clock. It ends at the final end, when yield declines, when the
// driver's site releases this one, or at a recorded abort, and blocks only
// when no hosted mailbox has mail. Off the driver's site yield is never
// called.
func (rt *runner) loop(yield func(relation.Tuple) bool) {
	if rt.deadline > 0 {
		expired := make(chan struct{})
		defer time.AfterFunc(rt.deadline, func() { close(expired) }).Stop()
		rt.expired = expired
	}
	// A panicking node process must not take down the site (in mpqd, other
	// queries) or leave other sites waiting: it becomes an abort, ErrNodePanic
	// carrying the stack. stepping is the process inside step; any other
	// panic (yield's) is the caller's.
	var stepping *proc
	defer func() {
		if stepping == nil {
			return
		}
		if r := recover(); r != nil {
			rt.abort(msg.AbortPanic, fmt.Sprintf("node %d (%s): %v\n%s",
				stepping.id, stepping.node.Adorned(), r, debug.Stack()))
		}
	}()

	if rt.drives() {
		rt.send(msg.Message{Kind: msg.RelReq, From: rt.driver, To: rt.g.Root})
		if len(rt.bind) > 0 {
			// Seed the root's "d" positions with the caller's runtime constants
			// (Options.Bind): one tuple request, exactly as any customer node
			// would issue — so the graph below needs no special casing.
			rt.send(msg.Message{Kind: msg.TupReq, From: rt.driver, To: rt.g.Root, Vals: rt.bind, Count: 1})
		}
		rt.send(msg.Message{Kind: msg.ReqEnd, From: rt.driver, To: rt.g.Root})
	}
	prof := rt.prof
	for {
		rt.poll()
		if rt.abortError() != nil {
			return
		}
		m, ok := rt.hub.Next(rt.pick)
		if !ok {
			rt.park()
			continue
		}
		switch m.Kind {
		case msg.Abort:
			// Relayed from another site's failure; abort relays it onward
			// once, so a partially delivered broadcast still reaches everyone.
			rt.abort(m.Reason, m.Note)
			continue
		case msg.Shutdown:
			return
		}
		var at time.Duration
		if prof != nil {
			at = prof.Since()
		}
		done := false
		if m.To != rt.driver {
			stepping = rt.procs[m.To]
			stepping.step(m)
			stepping = nil
		} else {
			done = rt.receive(m, yield)
		}
		if prof != nil {
			prof.Handled(trace.Span{At: at, Dur: prof.Since() - at,
				Node: m.To, From: m.From, Kind: uint8(m.Kind), Rows: rowsIn(m)})
		}
		if done {
			return
		}
	}
}

// receive plays the user process for one message addressed to the driver:
// goal tuples are yielded as they arrive and stored nowhere (the root goal
// has already deduplicated them, §3.1). It reports whether the evaluation is
// over: the root's final end came, or yield declined.
func (rt *runner) receive(m msg.Message, yield func(relation.Tuple) bool) bool {
	if m.Kind == msg.End {
		return m.All
	}
	arity := len(rt.g.Nodes[rt.g.Root].Atom.Args)
	for i, n := 0, rowsIn(m); i < n; i++ {
		if !yield(relation.Tuple(m.Vals[i*arity : (i+1)*arity : (i+1)*arity])) {
			return true
		}
	}
	return false
}

// ownsFrames reports whether node id is a node process this site hosts
// (never the driver): only frames between two such nodes are recycled. A
// frame to the driver may have rows a RunStream yield keeps, a TupReq from
// the driver carries the caller's Options.Bind, and a frame to or from
// another site belongs to its transport.
func (rt *runner) ownsFrames(id int) bool {
	return id != rt.driver && (rt.hosts == nil || rt.hosts[id] == rt.site)
}

// framesTo returns the free list for the row buffers sending to node id:
// the site's when the frames come back to it, else nil.
func (rt *runner) framesTo(id int) *frames {
	if rt.ownsFrames(id) {
		return rt.frames
	}
	return nil
}

// recycle returns a data frame's payload to the site's free list once a
// hosted node has handled it, when its sender is hosted here too.
func (rt *runner) recycle(m msg.Message) {
	if (m.Kind == msg.Tuple || m.Kind == msg.TupReq) && rt.ownsFrames(m.From) {
		rt.frames.put(m.Vals)
	}
}

// send dispatches a message and counts it in the sender's tally, so every
// message is attributed to the rule/goal node (or the driver) that produced
// it.
func (rt *runner) send(m msg.Message) {
	t := &rt.tallies[m.From]
	switch m.Kind {
	case msg.RelReq:
		t.RelReqs++
	case msg.TupReq:
		t.TupReqs++
		t.TupReqRows += int64(rowsIn(m))
	case msg.Tuple:
		t.Tuples++
		t.TupleRows += int64(rowsIn(m))
	case msg.End:
		t.Ends++
	case msg.ReqEnd:
		t.ReqEnds++
	case msg.EndReq, msg.EndNeg, msg.EndConf, msg.Nudge:
		t.Protocol++
	}
	rt.net.Send(m)
}
