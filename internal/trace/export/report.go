package export

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/trace"
)

// WriteReport renders a per-query profile (mpq -profile): overall totals,
// the top-K nodes by messages sent and by wall-time spent handling, the
// termination-round timeline, and a per-site breakdown. topK <= 0 selects
// 5. The report reads per-node tallies, so "which goal/rule node is hot" —
// the quantity the aggregate trace.Stats line cannot show — is its whole
// point; Query-Subquery Nets' per-node tuple accounting is the comparable
// presentation in the literature.
func WriteReport(w io.Writer, ps trace.ProfileSnapshot, topK int) error {
	if topK <= 0 {
		topK = 5
	}
	var totalMsgs, totalRows, totalJoins int64
	var busy time.Duration
	active := 0
	for _, n := range ps.Nodes {
		totalMsgs += n.Messages() + n.Protocol
		totalRows += n.TupleRows
		totalJoins += n.Joins
		busy += n.Busy
		if n.Active() {
			active++
		}
	}
	fmt.Fprintf(w, "query profile: %s elapsed, %d/%d nodes active, %d messages (%d rows), %d join probes, %s node wall-time\n",
		rd(ps.Elapsed), active, len(ps.Nodes), totalMsgs, totalRows, totalJoins, rd(busy))

	top := func(title string, key func(trace.NodeProfile) int64) {
		nodes := make([]trace.NodeProfile, 0, len(ps.Nodes))
		for _, n := range ps.Nodes {
			if n.Active() && key(n) > 0 {
				nodes = append(nodes, n)
			}
		}
		sort.Slice(nodes, func(i, j int) bool {
			if key(nodes[i]) != key(nodes[j]) {
				return key(nodes[i]) > key(nodes[j])
			}
			return nodes[i].ID < nodes[j].ID
		})
		if len(nodes) > topK {
			nodes = nodes[:topK]
		}
		if len(nodes) == 0 {
			return
		}
		fmt.Fprintf(w, "\ntop %d nodes by %s:\n", len(nodes), title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  node\tsite\tmsgs\trows\tjoins\tderived\tstored\tdups\tbusy\tspan\tlabel")
		for _, n := range nodes {
			fmt.Fprintf(tw, "  #%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s %s\n",
				n.ID, n.Site, n.Messages()+n.Protocol, n.TupleRows, n.Joins, n.Derived, n.Stored, n.Dups,
				rd(n.Busy), span(n), n.Kind, n.Label)
		}
		tw.Flush()
	}
	top("messages sent", func(n trace.NodeProfile) int64 { return n.Messages() + n.Protocol })
	top("rows sent", func(n trace.NodeProfile) int64 { return n.TupleRows })
	top("join probes", func(n trace.NodeProfile) int64 { return n.Joins })
	top("wall-time (busy handling)", func(n trace.NodeProfile) int64 { return int64(n.Busy) })

	if len(ps.Rounds) > 0 {
		fmt.Fprintf(w, "\ntermination rounds (%d):\n", len(ps.Rounds))
		for _, r := range ps.Rounds {
			status := "probing"
			if r.Confirmed {
				status = "confirmed quiescent"
			}
			label := ""
			if r.Node >= 0 && r.Node < len(ps.Nodes) {
				label = " " + ps.Nodes[r.Node].Label
			}
			fmt.Fprintf(w, "  +%s\tround %d @ leader #%d%s: %s\n", rd(r.At), r.Round, r.Node, label, status)
		}
	}

	sites := ps.Sites()
	fmt.Fprintln(w, "\nper-site:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  site\tnodes\tactive\tmsgs\trows\tjoins\tbusy")
	for _, s := range sites {
		fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			s.Site, s.Nodes, s.ActiveNodes, s.Messages()+s.Protocol, s.TupleRows, s.Joins, rd(s.Busy))
	}
	return tw.Flush()
}

// rd rounds a duration for display.
func rd(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d
	}
}

// span formats a node's activity window.
func span(n trace.NodeProfile) string {
	if n.Handled == 0 {
		return "-"
	}
	return fmt.Sprintf("%s..%s", rd(n.First), rd(n.Last))
}
