// Package msg defines the message vocabulary of §3: the basic messages that
// drive the computation (relation request, tuple request, tuple, end) and
// the additional protocol that detects distributed termination of cycles
// (end request, end negative, end confirmed). Two further kinds complete
// the implementation: ReqEnd, a downward "no more tuple requests" marker
// that lets non-recursive completion cascade (the paper leaves this
// bookkeeping implicit), and Nudge, a hint to a component's BFST leader
// that local quiescence was reached (a liveness guard; see DESIGN.md).
//
// Messages are plain data with no pointers into engine state, so the same
// values travel over in-process mailboxes and the TCP transport unchanged.
package msg

import (
	"fmt"

	"repro/internal/symtab"
)

// Kind enumerates the message types.
type Kind uint8

const (
	// RelReq "triggers the beginning of computation and identifies the
	// classes of the arguments" (§3.1). It flows against the arc
	// orientation, from customer to feeder.
	RelReq Kind = iota
	// TupReq "specifies one binding for all of the d arguments" (§3.1).
	// Vals holds the values of the d positions in position order.
	TupReq
	// Tuple carries derived tuples to a successor: Vals holds the values of
	// the carried (non-existential) positions in position order, Count rows
	// of equal width concatenated. Several rows in one Tuple is footnote 2's
	// packaging applied to deliveries; semantically it is exactly Count
	// consecutive single-row Tuples from the same sender (see
	// doc/PROTOCOL.md, "Packaged delivery").
	Tuple
	// End notifies a customer that requested results are complete. N is a
	// watermark: the first N tuple requests this feeder received from the
	// customer are fully serviced (every answer tuple was sent before the
	// End). All additionally marks the entire relation request complete;
	// it is sent once the customer has issued ReqEnd.
	End
	// ReqEnd tells a feeder that its customer will issue no more tuple
	// requests for the current relation request.
	ReqEnd
	// EndReq is the §3.2 protocol probe, propagated from the BFST leader
	// through the breadth-first spanning tree of a strong component.
	EndReq
	// EndNeg answers an EndReq negatively: some node in the subtree was
	// not idle for the full period between two end requests.
	EndNeg
	// EndConf answers an EndReq positively: every node in the subtree has
	// been idle between the two most recent end requests.
	EndConf
	// Nudge tells a component's leader that a member just drained its
	// queue, so a protocol round may now succeed.
	Nudge
	// Shutdown releases another site: once the query answer is complete,
	// the driver's site sends one to each other site (to the first node it
	// hosts), and a site leaves its run loop at the first one it finds.
	Shutdown
	// Abort tells a site to stop immediately: the query cannot complete (a
	// site died, the deadline passed, or a node panicked) and its run loop
	// should return instead of waiting for messages that will never arrive. Reason carries the cause; Note optional
	// detail (e.g. a panic stack trace). Abort is outside the §3.2 message
	// vocabulary and is never counted by End/ReqEnd watermark accounting —
	// see doc/PROTOCOL.md, "Failure model".
	Abort
	// Hello is a transport-level frame sent once when a site dials a peer;
	// From holds the dialing *site* id (not a node id). It lets the accept
	// side attribute the connection — and its failure — to a site.
	// Hello never reaches a node mailbox.
	Hello
	// Heartbeat is a transport-level liveness frame that both ends of a
	// site-pair connection write periodically; From holds the sending site
	// id. A connection silent for longer than the heartbeat timeout is
	// broken. Heartbeat never reaches a node mailbox and carries no
	// protocol meaning.
	Heartbeat
	// Bye is the last frame a site writes on each of its connections when
	// it leaves cleanly; From holds the site id. A connection that ends
	// without it is broken, and its peer is declared down. Bye never
	// reaches a node mailbox.
	Bye
)

// Abort reason codes, carried in Message.Reason.
const (
	// AbortNone means no abort (the zero value).
	AbortNone uint8 = iota
	// AbortSiteDown: a peer site was declared unreachable.
	AbortSiteDown
	// AbortDeadline: the query's wall-clock deadline passed.
	AbortDeadline
	// AbortPanic: a node process panicked; Note holds the stack trace.
	AbortPanic
	// AbortCancelled: the caller cancelled the evaluation.
	AbortCancelled
)

// ReasonString names an abort reason code.
func ReasonString(r uint8) string {
	switch r {
	case AbortSiteDown:
		return "site down"
	case AbortDeadline:
		return "deadline exceeded"
	case AbortPanic:
		return "node panic"
	case AbortCancelled:
		return "cancelled"
	}
	return "unknown"
}

var kindNames = [...]string{
	"relreq", "tupreq", "tuple", "end", "reqend",
	"endreq", "endneg", "endconf", "nudge", "shutdown",
	"abort", "hello", "heartbeat", "bye",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is one unit of communication between node processes. From and To
// are rule/goal graph node ids; the driver (the user process that issues
// the top-level request and collects answers) uses the id one past the
// last graph node.
type Message struct {
	Kind Kind
	From int
	To   int
	// Vals carries d-argument bindings (TupReq) or carried-position values
	// (Tuple). A packaged message (footnote 2) concatenates Count rows.
	Vals []symtab.Sym
	// Count is the number of rows in a TupReq or Tuple; zero or one means
	// a single row.
	Count int
	// N is the End watermark: how many of the customer's tuple-request
	// bindings are fully serviced.
	N int
	// All marks an End as final for the whole relation request.
	All bool
	// Round numbers termination-protocol rounds within one leader's run.
	Round int
	// Reason carries the abort cause (Abort messages only); see the
	// AbortSiteDown... constants.
	Reason uint8
	// Note carries human-readable abort detail, e.g. a panic stack trace
	// or the name of the failed site (Abort messages only).
	Note string
}

// String renders the message for traces and test failures.
func (m Message) String() string {
	switch m.Kind {
	case Tuple, TupReq:
		return fmt.Sprintf("%s %d→%d %v", m.Kind, m.From, m.To, m.Vals)
	case End:
		return fmt.Sprintf("end %d→%d n=%d all=%v", m.From, m.To, m.N, m.All)
	case EndReq, EndNeg, EndConf:
		return fmt.Sprintf("%s %d→%d round=%d", m.Kind, m.From, m.To, m.Round)
	case Abort:
		return fmt.Sprintf("abort %d→%d reason=%s", m.From, m.To, ReasonString(m.Reason))
	default:
		return fmt.Sprintf("%s %d→%d", m.Kind, m.From, m.To)
	}
}
