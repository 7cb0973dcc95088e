// Package trace collects execution counters from the message-passing
// engine: messages by kind, tuples derived and deduplicated, joins probed,
// and termination-protocol rounds. Each node process counts into its own
// plain Tally while the evaluation runs, and the engine adds the
// evaluation's tallies to the shared Stats once, when it ends. The counters
// other goroutines update — transport, planning and serving — are atomic
// hooks on Stats.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tally is what one node process did during one evaluation: the messages it
// sent by kind (§3.1), the rows those messages carried, the Fig 2 protocol
// messages and rounds it originated, and its data-path work. The process
// owns it exclusively (plain fields, no atomics).
//
// Messages count frames and rows apart: a Tuple of 50 rows adds 1 to Tuples
// and 50 to TupleRows, and a packaged tuple request (footnote 2) with 50
// bindings adds 1 to TupReqs and 50 to TupReqRows. So Messages measures
// traffic in frames — the quantity packaging reduces — while TupleRows and
// TupReqRows measure the information moved, which packaging must not change.
// Exporters keep the same split (see doc/OBSERVABILITY.md).
type Tally struct {
	RelReqs, TupReqs, Tuples, Ends, ReqEnds int64
	TupReqRows, TupleRows                   int64
	Protocol, Rounds                        int64 // Fig 2 messages sent; rounds originated
	Derived, Stored, Dups                   int64 // head tuples derived at rule nodes; stored and discarded at goal nodes
	Joins, EDBScans, EDBTuples              int64 // join probe candidates; EDB selections and the tuples they read
	// DeltaSeeded counts the Δ base tuples seeded at EDB leaves during
	// delta rounds (see engine.Incremental and doc/SUBSCRIPTIONS.md).
	DeltaSeeded int64
}

// Add adds o to t.
func (t *Tally) Add(o Tally) {
	t.RelReqs += o.RelReqs
	t.TupReqs += o.TupReqs
	t.Tuples += o.Tuples
	t.Ends += o.Ends
	t.ReqEnds += o.ReqEnds
	t.TupReqRows += o.TupReqRows
	t.TupleRows += o.TupleRows
	t.Protocol += o.Protocol
	t.Rounds += o.Rounds
	t.Derived += o.Derived
	t.Stored += o.Stored
	t.Dups += o.Dups
	t.Joins += o.Joins
	t.EDBScans += o.EDBScans
	t.EDBTuples += o.EDBTuples
	t.DeltaSeeded += o.DeltaSeeded
}

// Messages is the total count of basic messages (§3.1): relation requests,
// tuple requests, tuples, ends, and request-ends, in frames.
func (t Tally) Messages() int64 {
	return t.RelReqs + t.TupReqs + t.Tuples + t.Ends + t.ReqEnds
}

// RowMessages is what Messages would be if every row travelled alone, as in
// the paper's tuple-at-a-time model: the information moved, in messages.
// RowMessages()/Messages() is the mean number of rows per frame.
func (t Tally) RowMessages() int64 {
	return t.RelReqs + t.TupReqRows + t.TupleRows + t.Ends + t.ReqEnds
}

// Stats is a set of monotone counters. The zero value is ready to use.
// All methods are safe for concurrent use.
type Stats struct {
	mu    sync.Mutex
	tally Tally // the sum of every finished evaluation's tallies

	// Failure-handling counters (transport + abort path).
	heartbeats   atomic.Int64 // heartbeat frames sent over TCP
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

	// Delta rounds driven through a retained plan (engine.Incremental). A
	// delta round re-runs the Fig 2 termination machinery, so Rounds still
	// counts its protocol rounds; DeltaRounds counts the evaluations
	// themselves.
	deltaRounds atomic.Int64

	// Serving-layer counters (internal/serve): load shedding, the
	// result cache of live views, and the SLO surface. Latency histograms
	// cover a request's time queued behind admission, its evaluation, and
	// end to end (queue + eval).
	shed           atomic.Int64 // requests rejected by admission load shedding
	resultHits     atomic.Int64 // result-cache hits (answers replayed, no evaluation)
	resultForwards atomic.Int64 // hits a delta round brought forward before the replay
	resultMisses   atomic.Int64 // result-cache misses (evaluated, perhaps into a new view)
	resultViews    atomic.Int64 // gauge: live result-cache views
	resultBytes    atomic.Int64 // gauge: bytes those views retain
	sloGood        atomic.Int64 // requests that met the latency objective
	sloBad         atomic.Int64 // requests that missed it or were shed
	burnMicro      atomic.Int64 // gauge: SLO burn rate ×1e6 over the sliding window
	queueWait      Histogram
	evalTime       Histogram
	endToEnd       Histogram
}

// Add folds one evaluation's tallies into the counters. The engine calls it
// once per evaluation, when the evaluation ends.
func (s *Stats) Add(t Tally) {
	s.mu.Lock()
	s.tally.Add(t)
	s.mu.Unlock()
}

// Counter increment hooks for the events counted outside the node
// processes' tallies.

func (s *Stats) Heartbeat()          { s.heartbeats.Add(1) }
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

func (s *Stats) Shed()          { s.shed.Add(1) }
func (s *Stats) ResultHit()     { s.resultHits.Add(1) }
func (s *Stats) ResultForward() { s.resultForwards.Add(1) }
func (s *Stats) ResultMiss()    { s.resultMisses.Add(1) }
func (s *Stats) SLOGood()       { s.sloGood.Add(1) }
func (s *Stats) SLOBad()        { s.sloBad.Add(1) }

// SetResultViews records the result-cache gauges: how many live views the
// cache holds and the bytes they retain.
func (s *Stats) SetResultViews(views, bytes int64) {
	s.resultViews.Store(views)
	s.resultBytes.Store(bytes)
}

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

// Snapshot is an immutable copy of the counters at one instant. Its Tally
// sums every evaluation that has ended.
type Snapshot struct {
	Tally
	// Failure-handling counters: transport liveness traffic, declared
	// peer failures, query aborts, and messages dropped at the
	// transport or by closed mailboxes (drops are counted, never silent,
	// so a lossy run is visible in its statistics).
	Heartbeats, PeerDowns             int64
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
	// (see engine.Incremental and doc/SUBSCRIPTIONS.md).
	DeltaRounds int64
	// Deprecated: ignored; evaluation is never sharded. Kept only because
	// benchmark/ still references it; removed with ROADMAP item 1's
	// [benchmark] PR. Always 0.
	Workers int64
	// Serving-layer counters: requests rejected by admission load
	// shedding, result-cache outcomes (a hit replays a live view's answers
	// and performs zero evaluation, a forward hit first brings the view
	// forward by one delta round), the live views and the bytes they
	// retain (gauges), and the SLO surface — requests that met/missed the
	// configured latency objective plus the sliding-window burn-rate gauge
	// (×1e6; see Stats.SetBurnRate).
	Shed                                     int64
	ResultHits, ResultForwards, ResultMisses int64
	ResultViews, ResultViewBytes             int64
	SLOGood, SLOBad                          int64
	BurnRateMicro                            int64
	// Serving-layer latency distributions: admission queue wait,
	// evaluation, and end to end.
	QueueWait, Eval, EndToEnd HistSnapshot
}

// Snapshot reads every counter.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	t := s.tally
	s.mu.Unlock()
	return Snapshot{
		Tally:                 t,
		Heartbeats:            s.heartbeats.Load(),
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
		Shed:                  s.shed.Load(),
		ResultHits:            s.resultHits.Load(),
		ResultForwards:        s.resultForwards.Load(),
		ResultMisses:          s.resultMisses.Load(),
		ResultViews:           s.resultViews.Load(),
		ResultViewBytes:       s.resultBytes.Load(),
		SLOGood:               s.sloGood.Load(),
		SLOBad:                s.sloBad.Load(),
		BurnRateMicro:         s.burnMicro.Load(),
		QueueWait:             s.queueWait.Snapshot(),
		Eval:                  s.evalTime.Snapshot(),
		EndToEnd:              s.endToEnd.Snapshot(),
	}
}

// String renders the snapshot as a single diagnostic line.
func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d (relreq=%d tupreq=%d/%drows tuple=%d/%drows end=%d reqend=%d)",
		sn.Messages(), sn.RelReqs, sn.TupReqs, sn.TupReqRows, sn.Tuples, sn.TupleRows, sn.Ends, sn.ReqEnds)
	fmt.Fprintf(&b, " protocol=%d rounds=%d", sn.Protocol, sn.Rounds)
	fmt.Fprintf(&b, " derived=%d stored=%d dups=%d joins=%d edbscans=%d edbtuples=%d",
		sn.Derived, sn.Stored, sn.Dups, sn.Joins, sn.EDBScans, sn.EDBTuples)
	if sn.Heartbeats+sn.PeerDowns+sn.Aborts+sn.DroppedSends+sn.DroppedPuts+sn.FaultDrops > 0 {
		fmt.Fprintf(&b, " heartbeats=%d peerdowns=%d aborts=%d dropped=%d/%dputs faultdrops=%d",
			sn.Heartbeats, sn.PeerDowns, sn.Aborts, sn.DroppedSends, sn.DroppedPuts, sn.FaultDrops)
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
	if sn.Shed+sn.ResultHits+sn.ResultForwards+sn.ResultMisses > 0 {
		fmt.Fprintf(&b, " shed=%d resulthits=%d resultforwards=%d resultmisses=%d resultviews=%d/%dB",
			sn.Shed, sn.ResultHits, sn.ResultForwards, sn.ResultMisses, sn.ResultViews, sn.ResultViewBytes)
	}
	if sn.SLOGood+sn.SLOBad > 0 {
		fmt.Fprintf(&b, " slogood=%d slobad=%d burn=%.2f", sn.SLOGood, sn.SLOBad, float64(sn.BurnRateMicro)/1e6)
	}
	return b.String()
}
