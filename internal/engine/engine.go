// Package engine evaluates queries by message-controlled computation (§3):
// every rule/goal graph node becomes a process (a goroutine) owning private
// state and a FIFO mailbox; processes exchange relation requests, tuple
// requests, tuples, and end messages; recursive components terminate via
// the Fig 2 protocol run over each component's breadth-first spanning tree.
//
// No state is shared between node processes — all coordination is by
// message, so the same engine runs over in-process mailboxes or the TCP
// transport (see RunSites and transport.TCP).
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
	"io"
	"runtime/debug"
	"sync"
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
	// Answers holds the goal tuples, one column per goal argument.
	Answers *relation.Relation
	// Stats snapshots the execution counters.
	Stats trace.Snapshot
}

// Options tune an evaluation. The zero value is ready to use.
type Options struct {
	// Stats, when non-nil, receives the execution counters (useful for
	// aggregating across runs). A fresh Stats is used otherwise.
	Stats *trace.Stats
	// Trace, when non-nil, receives one line per message sent, in send
	// order per sender (global order is the scheduler's). Intended for
	// debugging and teaching; it serializes sends and is slow.
	Trace io.Writer
	// EDBDelay simulates per-retrieval latency at EDB leaves (disk or a
	// remote store), for the parallelism experiments: independent node
	// processes overlap these waits, sequential evaluation cannot. Zero
	// (the default) disables the simulation.
	EDBDelay time.Duration
	// Deadline, when positive, bounds the evaluation in wall-clock time:
	// when it expires the query is aborted everywhere (an Abort message is
	// broadcast to every node process) and Run/RunSites return ErrDeadline
	// instead of hanging.
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
	// timeline; render it with internal/trace/export.WriteReport. The
	// engine sizes and labels the profile itself. Multi-site runs profile
	// per site: each RunSites call observes the nodes its site hosts.
	// Disabled (nil), the only cost is one nil check per message.
	Profile *trace.Profile
	// Events, when non-nil, records one structured event per handled
	// message and per protocol round into a bounded ring, exportable as
	// Chrome trace_event JSON (export.WriteTraceEvents). Opt-in; like
	// Trace it adds per-message work (a timestamped, mutex-guarded
	// append), so keep it off benchmark paths.
	Events *trace.EventLog
	// Bind supplies runtime values for the root goal's "d" (dynamically
	// bound) argument positions, in position order: the driver seeds the
	// evaluation with one tuple request carrying them, between the initial
	// relation request and the request-end. This is how a prepared query
	// re-drives a compiled graph with new constants (see rgg.Options.RootAd).
	// Its length must equal the root's number of "d" positions — zero for
	// ordinary all-free roots.
	Bind []symtab.Sym
	// Partitions, when >= 2, splits every partitionable rule and IDB goal
	// node into that many hash-partitioned worker shards — goroutines with
	// private mailboxes and join state, fed by sender-side hash routing on
	// the node's partition key (see DESIGN.md, "Partitioned node
	// processes"). 0 or 1 keeps the one-goroutine-per-node behavior. The
	// answer set is identical at any setting; only the schedule (and hence
	// wall-clock on multi-core hosts) changes. Multi-site runs must pass
	// the same value at every site, since senders compute the shard of
	// remote receivers. The mpq/mpqd CLIs default their -partitions flag to
	// GOMAXPROCS; the engine zero value stays sequential so embedders opt
	// in explicitly.
	Partitions int
}

// Run evaluates the graph's query against the database with every node
// process in this OS process, communicating over in-process mailboxes.
func Run(g *rgg.Graph, db edb.Storage, opts Options) (*Result, error) {
	return RunStream(g, db, opts, nil)
}

// RunStream is Run with answer streaming: yield is invoked for each goal
// tuple as it arrives, in derivation order ("answer tuples come trickling
// in throughout the computation", §3.1). Returning false cancels the
// evaluation early — remaining node processes are shut down and the
// partial Result returned. A nil yield collects answers silently.
func RunStream(g *rgg.Graph, db edb.Storage, opts Options, yield func(relation.Tuple) bool) (*Result, error) {
	n := len(g.Nodes)
	db.WarmFor(edbIndexNeeds(g))
	local := transport.NewLocal(n + 1) // +1: the driver's mailbox
	rt, err := newRunner(g, db, local, opts, nil, 0)
	if err != nil {
		return nil, err
	}
	rt.local = local
	stop := rt.startWatch(opts)
	for id := range g.Nodes {
		rt.startProc(id, local.Boxes[id])
	}
	answers, runErr := rt.driveStream(local.Boxes[n], yield)
	stop()
	local.Close() // unblocks any process still waiting after Shutdown races
	rt.wg.Wait()
	rt.stats.DroppedPuts(local.Dropped())
	if runErr != nil {
		return nil, runErr
	}
	return &Result{Answers: answers, Stats: rt.stats.Snapshot()}, nil
}

// RunSites evaluates the graph with node processes partitioned across
// several sites connected by the given networks (typically transport.TCP).
// hosts maps each node id — and the driver id, len(g.Nodes) — to a site.
// Every nontrivial strong component must be co-located on one site (see
// Partition); RunSites returns an error otherwise.
//
// Each participating site calls RunSites with its own site id and network;
// the call on the driver's site returns the Result, all others return
// (nil, nil) after their nodes shut down.
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
	db.WarmFor(edbIndexNeeds(g))
	rt, err := newRunner(g, db, net, opts, hosts, site)
	if err != nil {
		return nil, err
	}
	rt.local = local
	stop := rt.startWatch(opts)
	for id := range g.Nodes {
		if hosts[id] == site {
			rt.startProc(id, local.Boxes[id])
		}
	}
	if hosts[len(g.Nodes)] == site {
		answers, runErr := rt.drive(local.Boxes[len(g.Nodes)])
		stop()
		rt.wg.Wait()
		rt.stats.DroppedPuts(local.Dropped())
		if runErr != nil {
			return nil, runErr
		}
		return &Result{Answers: answers, Stats: rt.stats.Snapshot()}, nil
	}
	// Non-driver site: wait for this site's processes to exit (Shutdown
	// from the driver, or an Abort). The watchdog covers this wait too, so
	// a dead driver site cannot leave us blocked forever when a deadline or
	// PeerDown channel is configured.
	rt.wg.Wait()
	stop()
	rt.stats.DroppedPuts(local.Dropped())
	return nil, rt.abortError()
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

// runtime holds the per-evaluation immutable context shared by node
// processes: the graph, the database (read-only), the network, and the
// stats sink. Mutable evaluation state lives inside each proc.
type runner struct {
	g        *rgg.Graph
	db       edb.Storage
	net      transport.Network
	stats    *trace.Stats
	driver   int // driver's node id: len(g.Nodes)
	bind     []symtab.Sym
	edbDelay time.Duration
	traceW   io.Writer
	traceMu  sync.Mutex
	wg       sync.WaitGroup

	// Observability (nil when disabled): prof shards the counters by node,
	// events records the structured event log, begin anchors both clocks.
	prof   *trace.Profile
	events *trace.EventLog
	begin  time.Time

	// parts is the partition plan (Options.Partitions >= 2), indexed by
	// node id with a nil entry for unpartitioned nodes and the driver; nil
	// when partitioning is off or no node qualifies. local is the Local
	// transport hosting this site's mailboxes — partitioned nodes register
	// their worker shard mailboxes with it for sender-side fan-out.
	parts []*partSpec
	local *transport.Local

	// hosts/site describe the node→site partition for multi-site runs (nil
	// hosts means everything is local); abort uses them to deliver Abort
	// messages to local mailboxes synchronously but remote sites in the
	// background. abortErr records the first abort's typed error; abortOff
	// marks the evaluation complete, turning any later abort into a no-op.
	hosts    []int
	site     int
	abortMu  sync.Mutex
	abortErr error
	abortOff bool

	// delta marks a delta round of an Incremental evaluation: node state is
	// retained from the previous round, EDB leaves seed only their delta
	// windows, and RelReq handlers skip the late-registration replay (the
	// customer already holds everything stored). False for ordinary runs.
	delta bool
}

func newRunner(g *rgg.Graph, db edb.Storage, net transport.Network, opts Options,
	hosts []int, site int) (*runner, error) {
	stats := opts.Stats
	if stats == nil {
		stats = &trace.Stats{}
	}
	if w := len(dynamicPositions(g.Nodes[g.Root].Ad)); len(opts.Bind) != w {
		return nil, fmt.Errorf("engine: Bind has %d values, root has %d dynamic positions", len(opts.Bind), w)
	}
	rt := &runner{g: g, db: db, net: net, stats: stats, driver: len(g.Nodes),
		bind: opts.Bind, edbDelay: opts.EDBDelay, traceW: opts.Trace,
		prof: opts.Profile, events: opts.Events,
		hosts: hosts, site: site}
	if opts.Partitions >= 2 {
		rt.parts = planPartitions(g, opts.Partitions)
	}
	workers := 0
	for _, sp := range rt.parts {
		if sp != nil {
			workers += sp.n
		}
	}
	stats.SetWorkers(int64(workers))
	if rt.prof != nil || rt.events != nil {
		rt.initObservers()
	}
	return rt, nil
}

// partSpec returns node id's partition plan, or nil when it runs as a
// single process.
func (rt *runner) partSpec(id int) *partSpec {
	if rt.parts == nil {
		return nil
	}
	return rt.parts[id]
}

// initObservers sizes the profile/event log for this graph and labels
// every shard with the node's adorned atom, kind, and hosting site, so
// exports and reports are readable without the graph in hand.
func (rt *runner) initObservers() {
	n := rt.driver + 1
	if rt.prof != nil {
		rt.prof.Init(n)
	}
	if rt.events != nil {
		rt.events.Init(n)
	}
	rt.begin = time.Now()
	setMeta := func(id int, m trace.NodeMeta) {
		if rt.prof != nil {
			rt.prof.SetMeta(id, m)
		}
		if rt.events != nil {
			rt.events.SetMeta(id, m)
		}
	}
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
		setMeta(id, trace.NodeMeta{Label: nd.Adorned().String(), Kind: kind, Site: site(id)})
	}
	setMeta(rt.driver, trace.NodeMeta{Label: "driver", Kind: "driver", Site: site(rt.driver)})
}

// IndexNeeds exposes edbIndexNeeds for callers that coordinate warming
// themselves: index construction mutates the shared base relations, so a
// caller running evaluations concurrently (mpq.System) must warm every
// index its graphs will probe under its own lock before the first run.
func IndexNeeds(g *rgg.Graph) []edb.IndexNeed { return edbIndexNeeds(g) }

// edbIndexNeeds lists the composite indexes evaluation will probe on the
// base relations: each EDB leaf's selection binds its constant argument
// positions plus its "d" positions, and relation.Select probes the
// composite index over exactly that column set (ascending). Single-bound-
// column leaves are covered by the unconditional per-column warming.
func edbIndexNeeds(g *rgg.Graph) []edb.IndexNeed {
	var needs []edb.IndexNeed
	for _, n := range g.Nodes {
		if !n.EDB {
			continue
		}
		bound := make(map[int]bool)
		for i, t := range n.Atom.Args {
			if !t.IsVar() {
				bound[i] = true
			}
		}
		for _, pos := range dynamicPositions(n.Ad) {
			bound[pos] = true
		}
		if len(bound) < 2 {
			continue
		}
		cols := make([]int, 0, len(bound))
		for i := range n.Atom.Args {
			if bound[i] {
				cols = append(cols, i)
			}
		}
		needs = append(needs, edb.IndexNeed{Key: n.Atom.Key(), Cols: cols})
	}
	return needs
}

func (rt *runner) startProc(id int, box *transport.Mailbox) {
	rt.spawn(newProc(rt, id, box))
}

// spawn runs an already-constructed (or pool-recycled, see Plan) node
// process on its own goroutine, tracked by the runner's WaitGroup.
func (rt *runner) spawn(p *proc) {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		// A panicking node process must not take down the whole site (in
		// mpqd, other queries' sites) or leave its peers blocked forever:
		// convert the panic into an abort so every process drains and the
		// driver returns ErrNodePanic carrying the stack.
		defer func() {
			if r := recover(); r != nil {
				rt.abort(msg.AbortPanic, fmt.Sprintf("node %d (%s): %v\n%s",
					p.id, rt.g.Nodes[p.id].Adorned(), r, debug.Stack()))
			}
		}()
		p.loop()
	}()
}

// drive plays the user process: it issues the top-level relation request,
// collects goal tuples until the root's final end message, then shuts the
// network down.
func (rt *runner) drive(box *transport.Mailbox) (*relation.Relation, error) {
	return rt.driveStream(box, nil)
}

func (rt *runner) driveStream(box *transport.Mailbox, yield func(relation.Tuple) bool) (*relation.Relation, error) {
	rt.send(msg.Message{Kind: msg.RelReq, From: rt.driver, To: rt.g.Root})
	if len(rt.bind) > 0 {
		// Seed the root's "d" positions with the caller's runtime constants
		// (Options.Bind): one tuple request, exactly as any customer node
		// would issue — so the graph below needs no special casing.
		rt.send(msg.Message{Kind: msg.TupReq, From: rt.driver, To: rt.g.Root, Vals: rt.bind, Count: 1})
	}
	rt.send(msg.Message{Kind: msg.ReqEnd, From: rt.driver, To: rt.g.Root})

	arity := len(rt.g.Nodes[rt.g.Root].Atom.Args)
	answers := relation.New(arity)
	for {
		m, ok := box.Get()
		if !ok {
			// A closed driver mailbox is never normal completion (RunStream
			// closes the Local only after this function returns): the site
			// is being torn down under us — e.g. an injected crash of the
			// driver's own site racing the watchdog's PeerDown event.
			// Record a typed abort so the caller gets an error instead of
			// the partial answer set as success; abort is a no-op if the
			// watchdog already recorded the real reason.
			rt.abort(msg.AbortSiteDown, "driver mailbox closed mid-query")
			break
		}
		switch m.Kind {
		case msg.Tuple, msg.TupleBatch:
			for i, n := 0, rowsIn(m); i < n; i++ {
				row := relation.Tuple(m.Vals[i*arity : (i+1)*arity])
				answers.Insert(row)
				if yield != nil && !yield(row) {
					goto done // caller cancelled: stop early
				}
			}
		case msg.End:
			if m.All {
				goto done
			}
		case msg.Abort:
			// Either relayed from another site's failure or injected by our
			// own watchdog; abort() is a no-op if already recorded.
			rt.abort(m.Reason, m.Note)
			goto done
		}
	}
done:
	for id := range rt.g.Nodes {
		rt.send(msg.Message{Kind: msg.Shutdown, From: rt.driver, To: id})
	}
	if err := rt.abortError(); err != nil {
		return nil, err
	}
	return answers, nil
}

// send dispatches a message and records it: once into the aggregate
// stats, and — when profiling — once into the *sender's* shard, so every
// message is attributed to the rule/goal node that produced it.
func (rt *runner) send(m msg.Message) {
	if rt.traceW != nil {
		rt.traceMu.Lock()
		fmt.Fprintf(rt.traceW, "%s\n", m)
		rt.traceMu.Unlock()
	}
	switch m.Kind {
	case msg.RelReq:
		rt.stats.RelReq()
	case msg.TupReq:
		rt.stats.TupReq()
		rt.stats.TupReqRows(rowsIn(m))
	case msg.Tuple:
		rt.stats.TupleMsg()
	case msg.TupleBatch:
		rt.stats.TupleBatchMsg(m.Count)
	case msg.End:
		rt.stats.EndMsg()
	case msg.ReqEnd:
		rt.stats.ReqEndMsg()
	case msg.EndReq, msg.EndNeg, msg.EndConf, msg.Nudge:
		rt.stats.ProtocolMsg()
	}
	if rt.prof != nil && m.From >= 0 && m.From < rt.prof.Size() {
		sh := rt.prof.Shard(m.From)
		switch m.Kind {
		case msg.RelReq, msg.End, msg.ReqEnd:
			sh.Msg()
		case msg.TupReq:
			sh.Msg()
			sh.ReqRows(rowsIn(m))
		case msg.Tuple, msg.TupleBatch:
			sh.Msg()
			sh.RowsOut(rowsIn(m))
		case msg.EndReq, msg.EndNeg, msg.EndConf, msg.Nudge:
			sh.ProtocolMsg()
		}
	}
	rt.net.Send(m)
}
