package export

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/msg"
	"repro/internal/trace"
)

// WriteTraceText renders a profile's span ring as text (mpq -trace): a
// legend naming every node, then one line per handled message, oldest
// first — when its handling started, receiver ← sender, the message kind,
// and the rows a tuple or tuple request carried — with each termination
// round on a line of its own.
func WriteTraceText(w io.Writer, ps trace.ProfileSnapshot) error {
	bw := bufio.NewWriter(w)
	for _, n := range ps.Nodes {
		fmt.Fprintf(bw, "#%d = %s (site %d)\n", n.ID, nodeName(n), n.Site)
	}
	if ps.Dropped > 0 {
		fmt.Fprintf(bw, "(%d older messages dropped; the newest %d follow)\n", ps.Dropped, len(ps.Spans))
	}
	rounds := ps.Rounds
	round := func() {
		r := rounds[0]
		rounds = rounds[1:]
		fmt.Fprintf(bw, "%12.1fµs  #%d %s\n", float64(r.At)*usPerNs, r.Node, roundName(r))
	}
	for _, s := range ps.Spans {
		for len(rounds) > 0 && rounds[0].At <= s.At {
			round()
		}
		fmt.Fprintf(bw, "%12.1fµs  #%d ← #%d  %s", float64(s.At)*usPerNs, s.Node, s.From, msg.Kind(s.Kind))
		switch msg.Kind(s.Kind) {
		case msg.Tuple, msg.TupReq:
			fmt.Fprintf(bw, " rows=%d", s.Rows)
		}
		bw.WriteByte('\n')
	}
	for len(rounds) > 0 {
		round()
	}
	return bw.Flush()
}
