// Package export renders trace data for operators: Prometheus text-format
// counters and an HTTP diagnostics mux for mpqd, Chrome trace_event JSON
// for chrome://tracing / Perfetto, and the per-query profile report behind
// mpq -profile. Every metric's mapping to its paper concept is documented
// in doc/OBSERVABILITY.md.
package export

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// metricRow is one exposition line: metric name, optional label pair,
// help text (emitted once per metric), and a value extractor.
type metricRow struct {
	name        string
	label       string // `kind="tuple"` etc., empty for unlabelled metrics
	help, mtype string
	value       func(sn trace.Snapshot) int64
}

// promRows lists every exported series in a fixed order, so the output is
// deterministic (golden-tested) and diffs stay readable. Series of one
// metric family must be adjacent (Prometheus exposition format requires
// it).
var promRows = []metricRow{
	// §3.1 basic messages, by kind. One unit per message; batches count
	// their rows in mpq_rows_total below (see trace.Snapshot.Messages).
	{"mpq_messages_total", `kind="relation_request"`, "Basic messages sent, by §3.1 kind (a batch is one message).", "counter",
		func(sn trace.Snapshot) int64 { return sn.RelReqs }},
	{"mpq_messages_total", `kind="tuple_request"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.TupReqs }},
	{"mpq_messages_total", `kind="tuple"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.Tuples }},
	{"mpq_messages_total", `kind="tuple_batch"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.TupleBatches }},
	{"mpq_messages_total", `kind="end"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.Ends }},
	{"mpq_messages_total", `kind="request_end"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.ReqEnds }},
	// Rows moved, independent of batching.
	{"mpq_rows_total", `dir="delivered"`, "Rows carried by tuple deliveries and tuple requests (batching-invariant).", "counter",
		func(sn trace.Snapshot) int64 { return sn.TupleRows }},
	{"mpq_rows_total", `dir="requested"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.TupReqRows }},
	// §3.2 termination protocol.
	{"mpq_protocol_messages_total", "", "Termination-protocol messages (end request/negative/confirmed, nudges; §3.2 Fig 2).", "counter",
		func(sn trace.Snapshot) int64 { return sn.Protocol }},
	{"mpq_protocol_rounds_total", "", "Termination-protocol rounds originated by component leaders (Fig 2 idleness probes).", "counter",
		func(sn trace.Snapshot) int64 { return sn.Rounds }},
	// Evaluation effort.
	{"mpq_tuples_derived_total", "", "Head tuples derived at rule nodes, before deduplication.", "counter",
		func(sn trace.Snapshot) int64 { return sn.Derived }},
	{"mpq_tuples_stored_total", "", "New tuples stored at goal nodes (§3.1 temporary relations).", "counter",
		func(sn trace.Snapshot) int64 { return sn.Stored }},
	{"mpq_tuples_duplicate_total", "", "Duplicate tuples discarded by goal/rule stores.", "counter",
		func(sn trace.Snapshot) int64 { return sn.Dups }},
	{"mpq_join_probes_total", "", "Join probe candidates examined by rule-node backtracking joins.", "counter",
		func(sn trace.Snapshot) int64 { return sn.Joins }},
	{"mpq_edb_scans_total", "", "Selections performed against base (EDB) relations.", "counter",
		func(sn trace.Snapshot) int64 { return sn.EDBScans }},
	{"mpq_edb_tuples_total", "", "Tuples read from base (EDB) relations.", "counter",
		func(sn trace.Snapshot) int64 { return sn.EDBTuples }},
	// Transport and failure handling (PR 2's counters).
	{"mpq_transport_heartbeats_total", "", "Heartbeat frames sent over TCP site-pair connections.", "counter",
		func(sn trace.Snapshot) int64 { return sn.Heartbeats }},
	{"mpq_transport_reconnects_total", "", "Successful re-dials after a connection loss.", "counter",
		func(sn trace.Snapshot) int64 { return sn.Reconnects }},
	{"mpq_transport_replayed_frames_total", "", "Frames re-sent by a reconnect's unacked-suffix replay.", "counter",
		func(sn trace.Snapshot) int64 { return sn.Replays }},
	{"mpq_transport_peer_down_total", "", "Peer sites declared unreachable.", "counter",
		func(sn trace.Snapshot) int64 { return sn.PeerDowns }},
	{"mpq_aborts_total", "", "Query aborts initiated (at most one per site per query).", "counter",
		func(sn trace.Snapshot) int64 { return sn.Aborts }},
	{"mpq_dropped_sends_total", "", "Sends dropped at the transport (failed peer or closed network).", "counter",
		func(sn trace.Snapshot) int64 { return sn.DroppedSends }},
	{"mpq_dropped_puts_total", "", "Messages dropped by closed mailboxes during shutdown or abort.", "counter",
		func(sn trace.Snapshot) int64 { return sn.DroppedPuts }},
	{"mpq_fault_injected_drops_total", "", "Messages dropped by injected faults (FaultNet chaos testing).", "counter",
		func(sn trace.Snapshot) int64 { return sn.FaultDrops }},
	// Prepared-query serving (the plan cache behind System.Query / mpqd
	// -serve): hits reuse a compiled rule/goal graph, misses compile one.
	{"mpq_plan_cache_total", `result="hit"`, "Plan-cache lookups by outcome: hit reused a compiled plan, miss compiled one.", "counter",
		func(sn trace.Snapshot) int64 { return sn.PlanHits }},
	{"mpq_plan_cache_total", `result="miss"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.PlanMisses }},
	// Adaptive planning (strategy=auto): which candidate won each
	// decision, drift-triggered plan re-optimizations, and statistics
	// snapshots taken for planning. See doc/PLANNING.md.
	{"mpq_plan_strategy_total", `strategy="greedy"`, "Auto-planner decisions by winning candidate strategy.", "counter",
		func(sn trace.Snapshot) int64 { return sn.StrategyAutoGreedy }},
	{"mpq_plan_strategy_total", `strategy="qualtree"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.StrategyAutoQualtree }},
	{"mpq_plan_strategy_total", `strategy="leftright"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.StrategyAutoLeftright }},
	{"mpq_plan_strategy_total", `strategy="cost"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.StrategyAutoCost }},
	{"mpq_plan_reopt_total", "", "Cached plans re-optimized after EDB statistics drifted past the threshold.", "counter",
		func(sn trace.Snapshot) int64 { return sn.PlanReopts }},
	{"mpq_stats_refresh_total", "", "EDB statistics snapshots taken by the auto planner.", "counter",
		func(sn trace.Snapshot) int64 { return sn.StatsRefreshes }},
	// Incremental re-evaluation (live subscriptions): delta rounds pushed
	// through retained plans and Δ base tuples seeded at EDB leaves.
	{"mpq_delta_rounds_total", "", "Incremental delta rounds evaluated through retained plans (subscriptions).", "counter",
		func(sn trace.Snapshot) int64 { return sn.DeltaRounds }},
	{"mpq_delta_seeded_tuples_total", "", "Δ base tuples seeded into EDB leaves by delta rounds.", "counter",
		func(sn trace.Snapshot) int64 { return sn.DeltaSeeded }},
	// Multi-tenant serving (internal/serve): admission load shedding and
	// the versioned result cache in front of evaluation.
	{"mpq_serve_shed_total", "", "Requests rejected by admission load shedding (typed ErrOverloaded, fail-fast).", "counter",
		func(sn trace.Snapshot) int64 { return sn.Shed }},
	{"mpq_serve_result_cache_total", `result="hit"`, "Result-cache lookups by outcome: a hit replays cached answers with zero evaluation.", "counter",
		func(sn trace.Snapshot) int64 { return sn.ResultHits }},
	{"mpq_serve_result_cache_total", `result="miss"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.ResultMisses }},
	// SLO accounting over the configured latency objective.
	{"mpq_slo_requests_total", `verdict="good"`, "Requests meeting (good) or missing (bad; includes shed) the configured latency objective.", "counter",
		func(sn trace.Snapshot) int64 { return sn.SLOGood }},
	{"mpq_slo_requests_total", `verdict="bad"`, "", "",
		func(sn trace.Snapshot) int64 { return sn.SLOBad }},
}

// promHists lists the serving-layer latency histograms, rendered in
// Prometheus histogram exposition (cumulative _bucket series plus _sum
// and _count) after the counter rows.
var promHists = []struct {
	name, help string
	value      func(sn trace.Snapshot) trace.HistSnapshot
}{
	{"mpq_serve_queue_wait_seconds", "Time requests spent queued behind admission (fair queueing + quotas).",
		func(sn trace.Snapshot) trace.HistSnapshot { return sn.QueueWait }},
	{"mpq_serve_eval_seconds", "Evaluation time per served query (admission to last answer).",
		func(sn trace.Snapshot) trace.HistSnapshot { return sn.Eval }},
	{"mpq_serve_latency_seconds", "End-to-end request latency (arrival to response, queue wait included).",
		func(sn trace.Snapshot) trace.HistSnapshot { return sn.EndToEnd }},
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4). Output order is fixed, so the exact bytes for a
// given snapshot are stable across runs and Go versions.
func WritePrometheus(w io.Writer, sn trace.Snapshot) error {
	var b strings.Builder
	for _, r := range promRows {
		if r.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", r.name, r.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", r.name, r.mtype)
		}
		if r.label != "" {
			fmt.Fprintf(&b, "%s{%s} %d\n", r.name, r.label, r.value(sn))
		} else {
			fmt.Fprintf(&b, "%s %d\n", r.name, r.value(sn))
		}
	}
	for _, h := range promHists {
		hs := h.value(sn)
		fmt.Fprintf(&b, "# HELP %s %s\n", h.name, h.help)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", h.name)
		cum := int64(0)
		for i, bound := range trace.HistBounds() {
			cum += hs.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", h.name,
				strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, hs.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", h.name,
			strconv.FormatFloat(float64(hs.SumNs)/1e9, 'g', -1, 64))
		fmt.Fprintf(&b, "%s_count %d\n", h.name, hs.Count)
	}
	// The burn-rate gauge: error-budget spend rate over the serving
	// layer's sliding window (1.0 = spending exactly the budget the
	// objective allows; >1 = burning faster). See doc/OBSERVABILITY.md.
	fmt.Fprintf(&b, "# HELP mpq_slo_burn_rate Error-budget burn rate over the serving window (gauge; 1.0 = at budget).\n")
	fmt.Fprintf(&b, "# TYPE mpq_slo_burn_rate gauge\n")
	fmt.Fprintf(&b, "mpq_slo_burn_rate %s\n",
		strconv.FormatFloat(float64(sn.BurnRateMicro)/1e6, 'g', -1, 64))
	_, err := io.WriteString(w, b.String())
	return err
}

// MetricsHandler serves WritePrometheus over HTTP, reading a fresh
// snapshot per scrape.
func MetricsHandler(snapshot func() trace.Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, snapshot())
	})
}

// DiagnosticsMux is the full diagnostics surface mpqd serves on -metrics:
// /metrics in Prometheus format plus the standard net/http/pprof handlers
// under /debug/pprof/ (registered explicitly so nothing leaks onto
// http.DefaultServeMux).
func DiagnosticsMux(snapshot func() trace.Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(snapshot))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "mpqd diagnostics: /metrics (Prometheus), /debug/pprof/ (Go profiles)\n")
	})
	return mux
}
