package export

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
)

// TestPrometheusGolden locks the exposition bytes for a fully populated
// snapshot: deterministic series order, HELP/TYPE once per family, adjacent
// series of one family — the properties scrapers and diff-readers rely on.
func TestPrometheusGolden(t *testing.T) {
	sn := trace.Snapshot{
		RelReqs: 1, TupReqs: 2, Tuples: 3, TupleBatches: 4, Ends: 5, ReqEnds: 6,
		TupReqRows: 7, TupleRows: 8,
		Protocol: 9, Rounds: 10,
		Derived: 11, Stored: 12, Dups: 13,
		Joins: 14, EDBScans: 15, EDBTuples: 16,
		Heartbeats: 17, PeerDowns: 20,
		Aborts: 21, DroppedSends: 22, DroppedPuts: 23, FaultDrops: 24,
		PlanHits: 25, PlanMisses: 26,
		StrategyAutoGreedy: 35, StrategyAutoQualtree: 36,
		StrategyAutoLeftright: 37, StrategyAutoCost: 38,
		PlanReopts: 39, StatsRefreshes: 40,
		DeltaRounds: 33, DeltaSeeded: 34,
		Shed: 28, ResultHits: 29, ResultMisses: 30,
		SLOGood: 31, SLOBad: 32, BurnRateMicro: 1_500_000,
	}
	// One sample in the first bucket, one in the sixth, one beyond the
	// last bound (visible only in _count and the +Inf bucket).
	sn.QueueWait.Counts[0], sn.QueueWait.Counts[5] = 1, 1
	sn.QueueWait.Count, sn.QueueWait.SumNs = 3, int64(30*time.Second)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, sn); err != nil {
		t.Fatal(err)
	}
	const golden = `# HELP mpq_messages_total Basic messages sent, by §3.1 kind (a batch is one message).
# TYPE mpq_messages_total counter
mpq_messages_total{kind="relation_request"} 1
mpq_messages_total{kind="tuple_request"} 2
mpq_messages_total{kind="tuple"} 3
mpq_messages_total{kind="tuple_batch"} 4
mpq_messages_total{kind="end"} 5
mpq_messages_total{kind="request_end"} 6
# HELP mpq_rows_total Rows carried by tuple deliveries and tuple requests (batching-invariant).
# TYPE mpq_rows_total counter
mpq_rows_total{dir="delivered"} 8
mpq_rows_total{dir="requested"} 7
# HELP mpq_protocol_messages_total Termination-protocol messages (end request/negative/confirmed, nudges; §3.2 Fig 2).
# TYPE mpq_protocol_messages_total counter
mpq_protocol_messages_total 9
# HELP mpq_protocol_rounds_total Termination-protocol rounds originated by component leaders (Fig 2 idleness probes).
# TYPE mpq_protocol_rounds_total counter
mpq_protocol_rounds_total 10
# HELP mpq_tuples_derived_total Head tuples derived at rule nodes, before deduplication.
# TYPE mpq_tuples_derived_total counter
mpq_tuples_derived_total 11
# HELP mpq_tuples_stored_total New tuples stored at goal nodes (§3.1 temporary relations).
# TYPE mpq_tuples_stored_total counter
mpq_tuples_stored_total 12
# HELP mpq_tuples_duplicate_total Duplicate tuples discarded by goal/rule stores.
# TYPE mpq_tuples_duplicate_total counter
mpq_tuples_duplicate_total 13
# HELP mpq_join_probes_total Join probe candidates examined by rule-node backtracking joins.
# TYPE mpq_join_probes_total counter
mpq_join_probes_total 14
# HELP mpq_edb_scans_total Selections performed against base (EDB) relations.
# TYPE mpq_edb_scans_total counter
mpq_edb_scans_total 15
# HELP mpq_edb_tuples_total Tuples read from base (EDB) relations.
# TYPE mpq_edb_tuples_total counter
mpq_edb_tuples_total 16
# HELP mpq_transport_heartbeats_total Heartbeat frames sent over TCP site-pair connections.
# TYPE mpq_transport_heartbeats_total counter
mpq_transport_heartbeats_total 17
# HELP mpq_transport_peer_down_total Peer sites declared unreachable.
# TYPE mpq_transport_peer_down_total counter
mpq_transport_peer_down_total 20
# HELP mpq_aborts_total Query aborts initiated (at most one per site per query).
# TYPE mpq_aborts_total counter
mpq_aborts_total 21
# HELP mpq_dropped_sends_total Sends dropped at the transport (failed peer or closed network).
# TYPE mpq_dropped_sends_total counter
mpq_dropped_sends_total 22
# HELP mpq_dropped_puts_total Messages dropped by closed mailboxes during shutdown or abort.
# TYPE mpq_dropped_puts_total counter
mpq_dropped_puts_total 23
# HELP mpq_fault_injected_drops_total Messages dropped by injected faults (FaultNet chaos testing).
# TYPE mpq_fault_injected_drops_total counter
mpq_fault_injected_drops_total 24
# HELP mpq_plan_cache_total Plan-cache lookups by outcome: hit reused a compiled plan, miss compiled one.
# TYPE mpq_plan_cache_total counter
mpq_plan_cache_total{result="hit"} 25
mpq_plan_cache_total{result="miss"} 26
# HELP mpq_plan_strategy_total Auto-planner decisions by winning candidate strategy.
# TYPE mpq_plan_strategy_total counter
mpq_plan_strategy_total{strategy="greedy"} 35
mpq_plan_strategy_total{strategy="qualtree"} 36
mpq_plan_strategy_total{strategy="leftright"} 37
mpq_plan_strategy_total{strategy="cost"} 38
# HELP mpq_plan_reopt_total Cached plans re-optimized after EDB statistics drifted past the threshold.
# TYPE mpq_plan_reopt_total counter
mpq_plan_reopt_total 39
# HELP mpq_stats_refresh_total EDB statistics snapshots taken by the auto planner.
# TYPE mpq_stats_refresh_total counter
mpq_stats_refresh_total 40
# HELP mpq_delta_rounds_total Incremental delta rounds evaluated through retained plans (subscriptions).
# TYPE mpq_delta_rounds_total counter
mpq_delta_rounds_total 33
# HELP mpq_delta_seeded_tuples_total Δ base tuples seeded into EDB leaves by delta rounds.
# TYPE mpq_delta_seeded_tuples_total counter
mpq_delta_seeded_tuples_total 34
# HELP mpq_serve_shed_total Requests rejected by admission load shedding (typed ErrOverloaded, fail-fast).
# TYPE mpq_serve_shed_total counter
mpq_serve_shed_total 28
# HELP mpq_serve_result_cache_total Result-cache lookups by outcome: a hit replays cached answers with zero evaluation.
# TYPE mpq_serve_result_cache_total counter
mpq_serve_result_cache_total{result="hit"} 29
mpq_serve_result_cache_total{result="miss"} 30
# HELP mpq_slo_requests_total Requests meeting (good) or missing (bad; includes shed) the configured latency objective.
# TYPE mpq_slo_requests_total counter
mpq_slo_requests_total{verdict="good"} 31
mpq_slo_requests_total{verdict="bad"} 32
# HELP mpq_serve_queue_wait_seconds Time requests spent queued behind admission (fair queueing + quotas).
# TYPE mpq_serve_queue_wait_seconds histogram
mpq_serve_queue_wait_seconds_bucket{le="3.2e-05"} 1
mpq_serve_queue_wait_seconds_bucket{le="6.4e-05"} 1
mpq_serve_queue_wait_seconds_bucket{le="0.000128"} 1
mpq_serve_queue_wait_seconds_bucket{le="0.000256"} 1
mpq_serve_queue_wait_seconds_bucket{le="0.000512"} 1
mpq_serve_queue_wait_seconds_bucket{le="0.001024"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.002048"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.004096"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.008192"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.016384"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.032768"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.065536"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.131072"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.262144"} 2
mpq_serve_queue_wait_seconds_bucket{le="0.524288"} 2
mpq_serve_queue_wait_seconds_bucket{le="1.048576"} 2
mpq_serve_queue_wait_seconds_bucket{le="2.097152"} 2
mpq_serve_queue_wait_seconds_bucket{le="4.194304"} 2
mpq_serve_queue_wait_seconds_bucket{le="8.388608"} 2
mpq_serve_queue_wait_seconds_bucket{le="16.777216"} 2
mpq_serve_queue_wait_seconds_bucket{le="+Inf"} 3
mpq_serve_queue_wait_seconds_sum 30
mpq_serve_queue_wait_seconds_count 3
# HELP mpq_serve_eval_seconds Evaluation time per served query (admission to last answer).
# TYPE mpq_serve_eval_seconds histogram
mpq_serve_eval_seconds_bucket{le="3.2e-05"} 0
mpq_serve_eval_seconds_bucket{le="6.4e-05"} 0
mpq_serve_eval_seconds_bucket{le="0.000128"} 0
mpq_serve_eval_seconds_bucket{le="0.000256"} 0
mpq_serve_eval_seconds_bucket{le="0.000512"} 0
mpq_serve_eval_seconds_bucket{le="0.001024"} 0
mpq_serve_eval_seconds_bucket{le="0.002048"} 0
mpq_serve_eval_seconds_bucket{le="0.004096"} 0
mpq_serve_eval_seconds_bucket{le="0.008192"} 0
mpq_serve_eval_seconds_bucket{le="0.016384"} 0
mpq_serve_eval_seconds_bucket{le="0.032768"} 0
mpq_serve_eval_seconds_bucket{le="0.065536"} 0
mpq_serve_eval_seconds_bucket{le="0.131072"} 0
mpq_serve_eval_seconds_bucket{le="0.262144"} 0
mpq_serve_eval_seconds_bucket{le="0.524288"} 0
mpq_serve_eval_seconds_bucket{le="1.048576"} 0
mpq_serve_eval_seconds_bucket{le="2.097152"} 0
mpq_serve_eval_seconds_bucket{le="4.194304"} 0
mpq_serve_eval_seconds_bucket{le="8.388608"} 0
mpq_serve_eval_seconds_bucket{le="16.777216"} 0
mpq_serve_eval_seconds_bucket{le="+Inf"} 0
mpq_serve_eval_seconds_sum 0
mpq_serve_eval_seconds_count 0
# HELP mpq_serve_latency_seconds End-to-end request latency (arrival to response, queue wait included).
# TYPE mpq_serve_latency_seconds histogram
mpq_serve_latency_seconds_bucket{le="3.2e-05"} 0
mpq_serve_latency_seconds_bucket{le="6.4e-05"} 0
mpq_serve_latency_seconds_bucket{le="0.000128"} 0
mpq_serve_latency_seconds_bucket{le="0.000256"} 0
mpq_serve_latency_seconds_bucket{le="0.000512"} 0
mpq_serve_latency_seconds_bucket{le="0.001024"} 0
mpq_serve_latency_seconds_bucket{le="0.002048"} 0
mpq_serve_latency_seconds_bucket{le="0.004096"} 0
mpq_serve_latency_seconds_bucket{le="0.008192"} 0
mpq_serve_latency_seconds_bucket{le="0.016384"} 0
mpq_serve_latency_seconds_bucket{le="0.032768"} 0
mpq_serve_latency_seconds_bucket{le="0.065536"} 0
mpq_serve_latency_seconds_bucket{le="0.131072"} 0
mpq_serve_latency_seconds_bucket{le="0.262144"} 0
mpq_serve_latency_seconds_bucket{le="0.524288"} 0
mpq_serve_latency_seconds_bucket{le="1.048576"} 0
mpq_serve_latency_seconds_bucket{le="2.097152"} 0
mpq_serve_latency_seconds_bucket{le="4.194304"} 0
mpq_serve_latency_seconds_bucket{le="8.388608"} 0
mpq_serve_latency_seconds_bucket{le="16.777216"} 0
mpq_serve_latency_seconds_bucket{le="+Inf"} 0
mpq_serve_latency_seconds_sum 0
mpq_serve_latency_seconds_count 0
# HELP mpq_slo_burn_rate Error-budget burn rate over the serving window (gauge; 1.0 = at budget).
# TYPE mpq_slo_burn_rate gauge
mpq_slo_burn_rate 1.5
`
	if got := buf.String(); got != golden {
		t.Errorf("prometheus output diverged from golden\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestMetricsHandler checks the HTTP wrapper: content type and a fresh
// snapshot per scrape.
func TestMetricsHandler(t *testing.T) {
	st := &trace.Stats{}
	h := MetricsHandler(st.Snapshot)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `mpq_messages_total{kind="tuple"} 0`) {
		t.Errorf("first scrape missing zero counter:\n%s", rec.Body.String())
	}

	st.TupleMsg()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `mpq_messages_total{kind="tuple"} 1`) {
		t.Errorf("second scrape did not re-snapshot:\n%s", rec.Body.String())
	}
}

// TestDiagnosticsMux checks the pprof surface is mounted.
func TestDiagnosticsMux(t *testing.T) {
	st := &trace.Stats{}
	mux := DiagnosticsMux(st.Snapshot)
	for _, path := range []string{"/metrics", "/debug/pprof/", "/debug/pprof/cmdline", "/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
	}
}

// TestTraceEventJSON validates the minimal trace_event schema Perfetto and
// chrome://tracing require: a traceEvents array whose entries carry name,
// a known phase, microsecond timestamps, and pid/tid routing; metadata
// names for every site and node; duration spans for handles.
func TestTraceEventJSON(t *testing.T) {
	p := traceProfile()
	p.MarkRound(0, 1, false)
	p.MarkRound(0, 1, true)

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}

	phases := map[string]int{}
	var spans, instants int
	for _, e := range out.TraceEvents {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event missing name/ph: %v", e)
		}
		if _, ok := e["pid"]; !ok {
			t.Fatalf("event missing pid: %v", e)
		}
		if _, ok := e["tid"]; !ok {
			t.Fatalf("event missing tid: %v", e)
		}
		phases[ph]++
		switch ph {
		case "M": // metadata
		case "X":
			spans++
			if e["dur"].(float64) <= 0 {
				t.Errorf("complete event without duration: %v", e)
			}
			if e["ts"].(float64) < 0 {
				t.Errorf("negative ts: %v", e)
			}
		case "i":
			instants++
			if e["s"] != "p" {
				t.Errorf("instant event without process scope: %v", e)
			}
		default:
			t.Errorf("unexpected phase %q", ph)
		}
	}
	// 2 sites + 3 threads named, 2 handles, 2 round marks.
	if phases["M"] != 5 || spans != 2 || instants != 2 {
		t.Errorf("phases = %v (want 5 M, 2 X, 2 i)", phases)
	}
	s := buf.String()
	for _, want := range []string{`"site 0"`, `"site 1"`, `"goal path(X,Y)"`, `"tuple"`, `"tupreq"`, "round 1", "round 1 confirmed"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %s", want)
		}
	}
	// The tuple handle at 10µs for 5µs must export as ts=10, dur=5 (µs).
	for _, e := range out.TraceEvents {
		if e["name"] == "tuple" {
			if e["ts"].(float64) != 10 || e["dur"].(float64) != 5 {
				t.Errorf("Tuple span ts=%v dur=%v, want 10/5µs", e["ts"], e["dur"])
			}
		}
	}
}

// traceProfile is a three-node profile (two sites, driver last) with two
// handled messages in an armed span ring: a tuple at 10µs for 5µs and a
// three-row tuple request at 20µs for 2µs.
func traceProfile() *trace.Profile {
	p := trace.NewProfile()
	p.RecordSpans(16)
	p.Init(3)
	p.SetMeta(0, trace.NodeMeta{Label: "path(X,Y)", Kind: "goal", Site: 0})
	p.SetMeta(1, trace.NodeMeta{Label: "path(X,Y)", Kind: "rule", Site: 1})
	p.SetMeta(2, trace.NodeMeta{Label: "driver", Kind: "driver", Site: 0})
	p.Handled(trace.Span{At: 10 * time.Microsecond, Dur: 5 * time.Microsecond,
		Node: 0, From: 2, Kind: uint8(msg.Tuple), Rows: 1})
	p.Handled(trace.Span{At: 20 * time.Microsecond, Dur: 2 * time.Microsecond,
		Node: 1, From: 0, Kind: uint8(msg.TupReq), Rows: 3})
	return p
}

// TestTraceEventDropped surfaces ring overflow in otherData.
func TestTraceEventDropped(t *testing.T) {
	p := trace.NewProfile()
	p.RecordSpans(2)
	p.Init(1)
	for i := 0; i < 5; i++ {
		p.Handled(trace.Span{Node: 0})
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.OtherData["dropped_events"].(float64) != 3 {
		t.Errorf("dropped_events = %v, want 3", out.OtherData["dropped_events"])
	}
}

// TestWriteTraceText checks the text renderer: a legend line per node,
// one line per handled message with receiver, sender, kind and rows, and
// each round on its own line in time order among the messages.
func TestWriteTraceText(t *testing.T) {
	ps := traceProfile().Snapshot()
	ps.Rounds = []trace.RoundMark{
		{At: 15 * time.Microsecond, Node: 0, Round: 1},
		{At: 30 * time.Microsecond, Node: 0, Round: 1, Confirmed: true},
	}
	var buf bytes.Buffer
	if err := WriteTraceText(&buf, ps); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"#0 = goal path(X,Y) (site 0)",
		"#1 = rule path(X,Y) (site 1)",
		"#2 = driver (site 0)",
		"10.0µs  #0 ← #2  tuple rows=1",
		"15.0µs  #0 round 1",
		"20.0µs  #1 ← #0  tupreq rows=3",
		"30.0µs  #0 round 1 confirmed",
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, w := range want {
		if strings.TrimSpace(lines[i]) != w {
			t.Errorf("line %d = %q, want %q", i, strings.TrimSpace(lines[i]), w)
		}
	}

	ps.Dropped = 7
	buf.Reset()
	if err := WriteTraceText(&buf, ps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "7 older messages dropped") {
		t.Errorf("dropped spans not reported:\n%s", buf.String())
	}
}

// TestWriteReport smoke-tests the human report: every section renders and
// the hot node surfaces in the top-K tables.
func TestWriteReport(t *testing.T) {
	p := trace.NewProfile()
	p.Init(3)
	p.SetMeta(0, trace.NodeMeta{Label: "path(X,Y)", Kind: "goal", Site: 0})
	p.SetMeta(1, trace.NodeMeta{Label: "path(X,Y) :- ...", Kind: "rule", Site: 1})
	p.SetMeta(2, trace.NodeMeta{Label: "driver", Kind: "driver", Site: 0})
	hot := p.Counters(1)
	for i := 0; i < 10; i++ {
		hot.Msg()
		hot.RowsOut(1)
		hot.AddWork(trace.Work{Joins: 4})
		hot.Handled(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	p.Counters(0).Msg()
	p.MarkRound(0, 1, true)

	var buf bytes.Buffer
	if err := WriteReport(&buf, p.Snapshot(), 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"query profile:", "top 2 nodes by messages sent", "join probes",
		"wall-time", "termination rounds", "per-site:", "#1", "rule",
		"confirmed quiescent",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n%s", want, out)
		}
	}
}
