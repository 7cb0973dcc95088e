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

// WriteTraceEvents renders a profile's span ring as Chrome trace_event
// JSON: each site becomes a "process" row group, each node a named
// "thread" whose message-handling spans appear as complete ("X") events,
// and termination rounds appear as instant ("i") events on the leader's
// row. Load the file in chrome://tracing or https://ui.perfetto.dev to see
// message flow and quiescence convergence on a timeline.
func WriteTraceEvents(w io.Writer, ps trace.ProfileSnapshot) error {
	out := traceFile{DisplayTimeUnit: "ns"}
	if ps.Dropped > 0 {
		out.OtherData = map[string]any{"dropped_events": ps.Dropped}
	}

	// Metadata: name the site processes and node threads so Perfetto rows
	// read as "goal path^df(X,Y)" instead of bare thread ids.
	sites := map[int]bool{}
	for _, n := range ps.Nodes {
		if !sites[n.Site] {
			sites[n.Site] = true
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "process_name", Phase: "M", PID: n.Site, TID: 0,
				Args: map[string]any{"name": fmt.Sprintf("site %d", n.Site)},
			})
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Phase: "M", PID: n.Site, TID: n.ID,
			Args: map[string]any{"name": nodeName(n)},
		})
	}

	site := func(node int) int {
		if node >= 0 && node < len(ps.Nodes) {
			return ps.Nodes[node].Site
		}
		return 0
	}
	for _, s := range ps.Spans {
		args := map[string]any{"from": s.From}
		if s.Rows > 1 {
			args["rows"] = s.Rows
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: msg.Kind(s.Kind).String(), Cat: "msg", Phase: "X",
			TS: float64(s.At) * usPerNs, Dur: float64(s.Dur) * usPerNs,
			PID: site(s.Node), TID: s.Node, Args: args,
		})
	}
	for _, r := range ps.Rounds {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: roundName(r), Cat: "protocol", Phase: "i",
			TS:  float64(r.At) * usPerNs,
			PID: site(r.Node), TID: r.Node, Scope: "p",
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// nodeName labels a node for the renderers: its kind and adorned atom
// ("goal path(X,Y)"), "driver", or "node N" when the profile has no label.
func nodeName(n trace.NodeProfile) string {
	switch {
	case n.Label == "":
		return fmt.Sprintf("node %d", n.ID)
	case n.Kind == "driver":
		return "driver"
	}
	return n.Kind + " " + n.Label
}

// roundName names one termination-round mark: "round 3" or "round 3
// confirmed".
func roundName(r trace.RoundMark) string {
	if r.Confirmed {
		return fmt.Sprintf("round %d confirmed", r.Round)
	}
	return fmt.Sprintf("round %d", r.Round)
}
