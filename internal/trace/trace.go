// Package trace collects execution counters from the message-passing
// engine: messages by kind, tuples derived and deduplicated, joins probed,
// and termination-protocol rounds. Counters are updated with atomic
// operations because every node process increments them concurrently; the
// per-row ones (derived, stored, duplicate, join and EDB counts) are tallied
// privately by each process in a Work and added once per mailbox drain, so
// the row path never touches a cache line other processes — or other
// evaluations sharing the Stats — write.
package trace

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Stats is a set of monotone counters. The zero value is ready to use.
// All methods are safe for concurrent use.
type Stats struct {
	relReqs    atomic.Int64
	tupReqs    atomic.Int64
	tupReqRows atomic.Int64 // bindings carried inside tuple-request messages
	tuples     atomic.Int64
	batches    atomic.Int64 // TupleBatch messages
	tupleRows  atomic.Int64 // rows delivered, via Tuple or TupleBatch
	ends       atomic.Int64
	reqEnds    atomic.Int64
	protocol   atomic.Int64 // end request/negative/confirmed + nudges
	rounds     atomic.Int64 // termination protocol rounds originated
	derived    atomic.Int64 // head tuples derived at rule nodes (before dedup)
	stored     atomic.Int64 // new tuples stored at goal nodes
	dups       atomic.Int64 // duplicate tuples discarded
	joins      atomic.Int64 // join probe candidates examined
	edbScans   atomic.Int64 // EDB selections performed
	edbTuples  atomic.Int64 // tuples read from the EDB

	// Failure-handling counters (transport + abort path).
	heartbeats   atomic.Int64 // heartbeat frames sent over TCP
	reconnects   atomic.Int64 // successful re-dials after a connection loss
	replays      atomic.Int64 // frames re-sent by a reconnect's unacked-suffix replay
	peerDowns    atomic.Int64 // peer sites declared unreachable
	aborts       atomic.Int64 // query aborts initiated (one per site at most)
	droppedSends atomic.Int64 // sends dropped at the transport (failed peer / closed net)
	droppedPuts  atomic.Int64 // Puts dropped by closed mailboxes
	faultDrops   atomic.Int64 // messages dropped by injected faults (FaultNet)

	// Prepared-query serving counters: plan-cache lookups that reused a
	// compiled rule/goal graph (hit) versus compiled a fresh one (miss). A
	// hit means the evaluation performed zero graph builds and zero index
	// warming.
	planHits   atomic.Int64
	planMisses atomic.Int64

	// Adaptive-planning counters: which candidate the auto planner chose
	// (per strategy name), cached plans re-optimized after statistics
	// drift, and statistics snapshots taken for planning.
	autoGreedy     atomic.Int64
	autoQualtree   atomic.Int64
	autoLeftright  atomic.Int64
	autoCost       atomic.Int64
	planReopts     atomic.Int64
	statsRefreshes atomic.Int64

	// Incremental (delta) re-evaluation counters: delta rounds driven
	// through a retained plan (engine.Incremental) and the Δ base tuples
	// those rounds seeded at EDB leaves. A delta round re-runs the Fig 2
	// termination machinery, so Rounds still counts its protocol rounds;
	// DeltaRounds counts the evaluations themselves.
	deltaRounds atomic.Int64
	deltaSeeded atomic.Int64

	// Serving-layer counters (internal/serve): load shedding, the
	// versioned result cache, and the SLO surface. Latency histograms
	// cover a request's time queued behind admission, its evaluation, and
	// end to end (queue + eval).
	shed         atomic.Int64 // requests rejected by admission load shedding
	resultHits   atomic.Int64 // result-cache hits (answers replayed, no evaluation)
	resultMisses atomic.Int64 // result-cache misses (evaluated, then cached)
	sloGood      atomic.Int64 // requests that met the latency objective
	sloBad       atomic.Int64 // requests that missed it or were shed
	burnMicro    atomic.Int64 // gauge: SLO burn rate ×1e6 over the sliding window
	queueWait    Histogram
	evalTime     Histogram
	endToEnd     Histogram
}

// Counter increment hooks, one per event the engine reports.

func (s *Stats) RelReq() { s.relReqs.Add(1) }
func (s *Stats) TupReq() { s.tupReqs.Add(1) }
func (s *Stats) TupReqRows(n int) {
	s.tupReqRows.Add(int64(n))
}
func (s *Stats) TupleMsg() { s.tuples.Add(1); s.tupleRows.Add(1) }
func (s *Stats) TupleBatchMsg(rows int) {
	s.batches.Add(1)
	s.tupleRows.Add(int64(rows))
}
func (s *Stats) EndMsg()             { s.ends.Add(1) }
func (s *Stats) ReqEndMsg()          { s.reqEnds.Add(1) }
func (s *Stats) ProtocolMsg()        { s.protocol.Add(1) }
func (s *Stats) Round()              { s.rounds.Add(1) }
func (s *Stats) Heartbeat()          { s.heartbeats.Add(1) }
func (s *Stats) Reconnect()          { s.reconnects.Add(1) }
func (s *Stats) Replays(n int)       { s.replays.Add(int64(n)) }
func (s *Stats) PeerDown()           { s.peerDowns.Add(1) }
func (s *Stats) Abort()              { s.aborts.Add(1) }
func (s *Stats) DroppedSend()        { s.droppedSends.Add(1) }
func (s *Stats) DroppedPuts(n int64) { s.droppedPuts.Add(n) }
func (s *Stats) FaultDrop()          { s.faultDrops.Add(1) }
func (s *Stats) PlanHit()            { s.planHits.Add(1) }
func (s *Stats) PlanMiss()           { s.planMisses.Add(1) }
func (s *Stats) PlanReopt()          { s.planReopts.Add(1) }
func (s *Stats) StatsRefresh()       { s.statsRefreshes.Add(1) }
func (s *Stats) DeltaRound()         { s.deltaRounds.Add(1) }
func (s *Stats) DeltaSeeded(n int64) { s.deltaSeeded.Add(n) }

// Work is one node process's private tally of data-path events since its
// last flush: head tuples derived at rule nodes (before dedup), new tuples
// stored at goal nodes, duplicates discarded, join probe candidates
// examined, EDB selections performed and tuples read from the EDB. The
// process owns it exclusively (plain fields, no atomics) and hands it to
// Stats.AddWork / NodeShard.AddWork when its mailbox drains.
type Work struct {
	Derived, Stored, Dups, Joins, EDBScans, EDBTuples int64
}

// AddWork folds a process's tally into the shared counters.
func (s *Stats) AddWork(w Work) {
	add(&s.derived, w.Derived)
	add(&s.stored, w.Stored)
	add(&s.dups, w.Dups)
	add(&s.joins, w.Joins)
	add(&s.edbScans, w.EDBScans)
	add(&s.edbTuples, w.EDBTuples)
}

// add skips the atomic (and the cache-line ownership transfer) for the
// counters a flush did not move — most of them, for any one node kind.
func add(c *atomic.Int64, n int64) {
	if n != 0 {
		c.Add(n)
	}
}

// StrategyAuto counts one auto-planner decision for the named winning
// candidate. Unknown names are ignored (the exported label set is fixed
// so the Prometheus series stay enumerable).
func (s *Stats) StrategyAuto(name string) {
	switch name {
	case "greedy":
		s.autoGreedy.Add(1)
	case "qualtree":
		s.autoQualtree.Add(1)
	case "leftright":
		s.autoLeftright.Add(1)
	case "cost":
		s.autoCost.Add(1)
	}
}

// Serving-layer hooks (see internal/serve).

func (s *Stats) Shed()       { s.shed.Add(1) }
func (s *Stats) ResultHit()  { s.resultHits.Add(1) }
func (s *Stats) ResultMiss() { s.resultMisses.Add(1) }
func (s *Stats) SLOGood()    { s.sloGood.Add(1) }
func (s *Stats) SLOBad()     { s.sloBad.Add(1) }

// SetBurnRate records the SLO burn-rate gauge, scaled by 1e6 (burn rate
// 1.0 — spending error budget exactly as fast as the objective allows —
// is stored as 1_000_000). The serving layer recomputes it over a sliding
// window after every request.
func (s *Stats) SetBurnRate(micro int64) { s.burnMicro.Store(micro) }

// ObserveQueueWait records how long a request waited for admission.
func (s *Stats) ObserveQueueWait(d time.Duration) { s.queueWait.Observe(d) }

// ObserveEval records one evaluation's duration (admission to last answer).
func (s *Stats) ObserveEval(d time.Duration) { s.evalTime.Observe(d) }

// ObserveEndToEnd records a request's full latency (arrival to response).
func (s *Stats) ObserveEndToEnd(d time.Duration) { s.endToEnd.Observe(d) }

// Snapshot is an immutable copy of the counters at one instant.
type Snapshot struct {
	RelReqs, TupReqs, Tuples, Ends, ReqEnds int64
	// TupReqRows and TupleRows count the rows carried by (possibly
	// packaged) tuple requests and (possibly batched) tuple deliveries, so
	// message counts stay interpretable when batching collapses many rows
	// into one message. TupleBatches counts TupleBatch messages.
	TupReqRows, TupleBatches, TupleRows int64
	Protocol, Rounds                    int64
	Derived, Stored, Dups               int64
	Joins, EDBScans, EDBTuples          int64
	// Failure-handling counters: transport liveness traffic, recoveries,
	// declared peer failures, query aborts, and messages dropped at the
	// transport or by closed mailboxes (drops are counted, never silent,
	// so a lossy run is visible in its statistics).
	Heartbeats, Reconnects, Replays   int64
	PeerDowns                         int64
	Aborts, DroppedSends, DroppedPuts int64
	FaultDrops                        int64
	// Plan-cache lookups: a hit reused a compiled rule/goal graph, a miss
	// compiled a fresh one (see System.Query and engine.Plan).
	PlanHits, PlanMisses int64
	// Adaptive planning: auto-strategy decisions by winning candidate,
	// cached plans re-optimized after statistics drift, and statistics
	// snapshots taken for planning (see doc/PLANNING.md).
	StrategyAutoGreedy, StrategyAutoQualtree int64
	StrategyAutoLeftright, StrategyAutoCost  int64
	PlanReopts, StatsRefreshes               int64
	// Incremental re-evaluation: delta rounds run through retained plans
	// and Δ base tuples seeded at EDB leaves during them (see
	// engine.Incremental and doc/SUBSCRIPTIONS.md).
	DeltaRounds, DeltaSeeded int64
	// Deprecated: ignored; evaluation is never sharded. Kept only because
	// benchmark/ still references it; removed with ROADMAP item 1's
	// [benchmark] PR. Always 0.
	Workers int64
	// Serving-layer counters: requests rejected by admission load
	// shedding, result-cache outcomes (a hit replays cached answers and
	// performs zero evaluation), and the SLO surface — requests that
	// met/missed the configured latency objective plus the sliding-window
	// burn-rate gauge (×1e6; see Stats.SetBurnRate).
	Shed                     int64
	ResultHits, ResultMisses int64
	SLOGood, SLOBad          int64
	BurnRateMicro            int64
	// Serving-layer latency distributions: admission queue wait,
	// evaluation, and end to end.
	QueueWait, Eval, EndToEnd HistSnapshot
}

// Snapshot reads every counter.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		RelReqs:               s.relReqs.Load(),
		TupReqs:               s.tupReqs.Load(),
		TupReqRows:            s.tupReqRows.Load(),
		Tuples:                s.tuples.Load(),
		TupleBatches:          s.batches.Load(),
		TupleRows:             s.tupleRows.Load(),
		Ends:                  s.ends.Load(),
		ReqEnds:               s.reqEnds.Load(),
		Protocol:              s.protocol.Load(),
		Rounds:                s.rounds.Load(),
		Derived:               s.derived.Load(),
		Stored:                s.stored.Load(),
		Dups:                  s.dups.Load(),
		Joins:                 s.joins.Load(),
		EDBScans:              s.edbScans.Load(),
		EDBTuples:             s.edbTuples.Load(),
		Heartbeats:            s.heartbeats.Load(),
		Reconnects:            s.reconnects.Load(),
		Replays:               s.replays.Load(),
		PeerDowns:             s.peerDowns.Load(),
		Aborts:                s.aborts.Load(),
		DroppedSends:          s.droppedSends.Load(),
		DroppedPuts:           s.droppedPuts.Load(),
		FaultDrops:            s.faultDrops.Load(),
		PlanHits:              s.planHits.Load(),
		PlanMisses:            s.planMisses.Load(),
		StrategyAutoGreedy:    s.autoGreedy.Load(),
		StrategyAutoQualtree:  s.autoQualtree.Load(),
		StrategyAutoLeftright: s.autoLeftright.Load(),
		StrategyAutoCost:      s.autoCost.Load(),
		PlanReopts:            s.planReopts.Load(),
		StatsRefreshes:        s.statsRefreshes.Load(),
		DeltaRounds:           s.deltaRounds.Load(),
		DeltaSeeded:           s.deltaSeeded.Load(),
		Shed:                  s.shed.Load(),
		ResultHits:            s.resultHits.Load(),
		ResultMisses:          s.resultMisses.Load(),
		SLOGood:               s.sloGood.Load(),
		SLOBad:                s.sloBad.Load(),
		BurnRateMicro:         s.burnMicro.Load(),
		QueueWait:             s.queueWait.Snapshot(),
		Eval:                  s.evalTime.Snapshot(),
		EndToEnd:              s.endToEnd.Snapshot(),
	}
}

// Messages is the total count of basic messages (§3.1): relation requests,
// tuple requests, tuples (single and batched), ends, and request-ends.
//
// Accounting convention for batches: a message is one transferable unit,
// however many rows it carries. A TupleBatch of 50 rows adds 1 here (via
// TupleBatches) and 50 to TupleRows; a packaged tuple request (footnote 2)
// with 50 bindings adds 1 (via TupReqs) and 50 to TupReqRows. So Messages
// measures traffic in channel/frame units — the quantity batching reduces —
// while TupleRows + TupReqRows measure the information moved, which
// batching must NOT change. Exporters keep the same split: messages_total
// counts units, rows_total counts rows (see doc/OBSERVABILITY.md).
func (sn Snapshot) Messages() int64 {
	return sn.RelReqs + sn.TupReqs + sn.Tuples + sn.TupleBatches + sn.Ends + sn.ReqEnds
}

// RowMessages is what Messages would be if every row travelled alone, as in
// the paper's tuple-at-a-time model: the information moved, in messages.
// RowMessages()/Messages() is the mean number of rows per frame.
func (sn Snapshot) RowMessages() int64 {
	return sn.RelReqs + sn.TupReqRows + sn.TupleRows + sn.Ends + sn.ReqEnds
}

// String renders the snapshot as a single diagnostic line.
func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d (relreq=%d tupreq=%d/%drows tuple=%d batch=%d/%drows end=%d reqend=%d)",
		sn.Messages(), sn.RelReqs, sn.TupReqs, sn.TupReqRows, sn.Tuples, sn.TupleBatches, sn.TupleRows, sn.Ends, sn.ReqEnds)
	fmt.Fprintf(&b, " protocol=%d rounds=%d", sn.Protocol, sn.Rounds)
	fmt.Fprintf(&b, " derived=%d stored=%d dups=%d joins=%d edbscans=%d edbtuples=%d",
		sn.Derived, sn.Stored, sn.Dups, sn.Joins, sn.EDBScans, sn.EDBTuples)
	if sn.Heartbeats+sn.Reconnects+sn.Replays+sn.PeerDowns+sn.Aborts+sn.DroppedSends+sn.DroppedPuts+sn.FaultDrops > 0 {
		fmt.Fprintf(&b, " heartbeats=%d reconnects=%d replays=%d peerdowns=%d aborts=%d dropped=%d/%dputs faultdrops=%d",
			sn.Heartbeats, sn.Reconnects, sn.Replays, sn.PeerDowns, sn.Aborts, sn.DroppedSends, sn.DroppedPuts, sn.FaultDrops)
	}
	if sn.PlanHits+sn.PlanMisses > 0 {
		fmt.Fprintf(&b, " planhits=%d planmisses=%d", sn.PlanHits, sn.PlanMisses)
	}
	if auto := sn.StrategyAutoGreedy + sn.StrategyAutoQualtree + sn.StrategyAutoLeftright + sn.StrategyAutoCost; auto+sn.PlanReopts+sn.StatsRefreshes > 0 {
		fmt.Fprintf(&b, " auto=%d(g:%d q:%d l:%d c:%d) reopts=%d statsrefresh=%d",
			auto, sn.StrategyAutoGreedy, sn.StrategyAutoQualtree, sn.StrategyAutoLeftright, sn.StrategyAutoCost,
			sn.PlanReopts, sn.StatsRefreshes)
	}
	if sn.DeltaRounds > 0 {
		fmt.Fprintf(&b, " deltarounds=%d deltaseeded=%d", sn.DeltaRounds, sn.DeltaSeeded)
	}
	if sn.Shed+sn.ResultHits+sn.ResultMisses > 0 {
		fmt.Fprintf(&b, " shed=%d resulthits=%d resultmisses=%d", sn.Shed, sn.ResultHits, sn.ResultMisses)
	}
	if sn.SLOGood+sn.SLOBad > 0 {
		fmt.Fprintf(&b, " slogood=%d slobad=%d burn=%.2f", sn.SLOGood, sn.SLOBad, float64(sn.BurnRateMicro)/1e6)
	}
	return b.String()
}
