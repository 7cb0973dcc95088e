package export

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/msg"
	"repro/internal/trace"
)

// traceEvent is one entry of the Chrome trace_event JSON Array Format
// (the format chrome://tracing and Perfetto load directly). ts and dur
// are microseconds; pid groups rows by site, tid by graph node.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

const usPerNs = 1e-3

// WriteTraceEvents renders the event log as Chrome trace_event JSON: each
// site becomes a "process" row group, each node a named "thread" whose
// message-handling spans appear as complete ("X") events, and termination
// rounds appear as instant ("i") events on the leader's row. Load the file
// in chrome://tracing or https://ui.perfetto.dev to see message flow and
// quiescence convergence on a timeline.
func WriteTraceEvents(w io.Writer, log *trace.EventLog) error {
	events, dropped, meta := log.Events()
	out := traceFile{DisplayTimeUnit: "ns"}
	if dropped > 0 {
		out.OtherData = map[string]any{"dropped_events": dropped}
	}

	// Metadata: name the site processes and node threads so Perfetto rows
	// read as "goal path^df(X,Y)" instead of bare thread ids.
	sites := map[int]bool{}
	for id, m := range meta {
		if !sites[m.Site] {
			sites[m.Site] = true
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "process_name", Phase: "M", PID: m.Site, TID: 0,
				Args: map[string]any{"name": fmt.Sprintf("site %d", m.Site)},
			})
		}
		label := m.Label
		if label == "" {
			label = fmt.Sprintf("node %d", id)
		} else {
			label = m.Kind + " " + label
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Phase: "M", PID: m.Site, TID: id,
			Args: map[string]any{"name": label},
		})
	}

	site := func(node int) int {
		if node >= 0 && node < len(meta) {
			return meta[node].Site
		}
		return 0
	}
	for _, e := range events {
		switch e.Op {
		case trace.EvHandle:
			args := map[string]any{"from": e.From}
			if e.Rows > 1 {
				args["rows"] = e.Rows
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: msg.Kind(e.Kind).String(), Cat: "msg", Phase: "X",
				TS: float64(e.At) * usPerNs, Dur: float64(e.Dur) * usPerNs,
				PID: site(e.Node), TID: e.Node, Args: args,
			})
		case trace.EvRound, trace.EvConfirm:
			name := fmt.Sprintf("round %d", e.Seq)
			if e.Op == trace.EvConfirm {
				name = fmt.Sprintf("round %d confirmed", e.Seq)
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: name, Cat: "protocol", Phase: "i",
				TS:  float64(e.At) * usPerNs,
				PID: site(e.Node), TID: e.Node, Scope: "p",
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
