package engine

import (
	"errors"
	"fmt"

	"repro/internal/msg"
)

// Typed evaluation failures. Before these existed, a dead site or a stuck
// query left the evaluation waiting for mail forever; now the engine detects
// the condition, sends msg.Abort so all sites stop, and Run/RunSites return
// one of these (test with errors.Is).
var (
	// ErrSiteDown: a peer site was declared down by the transport (a
	// broken link: an error, heartbeat silence, or an end without Bye; a
	// failed first dial; or an injected FaultNet crash or cut).
	ErrSiteDown = errors.New("engine: site down")
	// ErrDeadline: the evaluation exceeded Options.Deadline.
	ErrDeadline = errors.New("engine: deadline exceeded")
	// ErrCancelled: Options.Cancel was closed by the caller.
	ErrCancelled = errors.New("engine: evaluation cancelled")
	// ErrNodePanic: a node process panicked; the error note carries the
	// node and stack trace instead of the panic killing the whole site.
	ErrNodePanic = errors.New("engine: node process panicked")
	// ErrAborted: the query was aborted for an unrecognized reason (an
	// Abort message from a newer/older site, normally impossible).
	ErrAborted = errors.New("engine: evaluation aborted")
)

// abortReasonError maps a msg.Abort reason code to the typed error.
func abortReasonError(reason uint8, note string) error {
	var base error
	switch reason {
	case msg.AbortSiteDown:
		base = ErrSiteDown
	case msg.AbortDeadline:
		base = ErrDeadline
	case msg.AbortPanic:
		base = ErrNodePanic
	case msg.AbortCancelled:
		base = ErrCancelled
	default:
		base = ErrAborted
	}
	if note == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, note)
}

// abort aborts the evaluation exactly once per runner: it records the typed
// error, which the run loop finds before its next step, and tells every node
// hosted elsewhere — in the background: a send to a dead site may wait out a
// dial window. Only the run loop calls it. Every site that observes an Abort
// relays it once through this same path, so a partially delivered broadcast
// still reaches every live site, and the once-guard bounds the echo at
// sites × nodes.
func (rt *runner) abort(reason uint8, note string) {
	if rt.abortErr != nil {
		return
	}
	rt.abortErr = abortReasonError(reason, note)
	if rt.hosts == nil {
		return
	}
	// The broadcast's From must be a node hosted on THIS site: fault
	// injection (and tracing) attributes a message to its sender's site.
	origin := rt.driver
	var remote []int
	for id := rt.driver; id >= 0; id-- {
		if rt.hosts[id] == rt.site {
			origin = id
		} else {
			remote = append(remote, id)
		}
	}
	if len(remote) > 0 {
		go func() {
			// One Abort per remote *site* would suffice, but per-node
			// delivery survives a link that loses some; sends to dead sites
			// drop fast after the first.
			for _, id := range remote {
				rt.send(msg.Message{Kind: msg.Abort, From: origin, To: id, Reason: reason, Note: note})
			}
		}()
	}
}

// abortError returns the recorded abort error, nil if the evaluation was
// not aborted.
func (rt *runner) abortError() error { return rt.abortErr }

// poll turns Options.Cancel closing and the deadline passing into a recorded
// abort. The loop polls between steps (a few nanoseconds on an unset or quiet
// channel), so either takes effect no later than the end of the step in
// progress, without a watchdog goroutine. A lost peer is park's business: a
// site with mail keeps stepping; only one waiting for a dead site needs rescue.
func (rt *runner) poll() {
	select {
	case <-rt.cancel:
		rt.abort(msg.AbortCancelled, "cancelled by caller")
	default:
	}
	select {
	case <-rt.expired:
		rt.abort(msg.AbortDeadline, fmt.Sprintf("after %v", rt.deadline))
	default:
	}
}

// park blocks the loop, which found no mail, until the hub's bell rings, an
// abort source fires or the transport reports a peer site down. Hub.Next has
// raised the parked flag, so park first re-checks what a producer publishes
// before reading that flag: no wake-up is lost, a stale token costs one look.
func (rt *runner) park() {
	switch {
	case rt.abortError() != nil:
	case rt.hub.Closed():
		// The site is being torn down under the evaluation (an injected crash).
		rt.abort(msg.AbortSiteDown, "mailbox closed mid-query")
	case rt.hosts == nil:
		// Every producer is this loop: waiting would never end.
		rt.abort(msg.AbortNone, "no process holds mail before the final end (lost termination)")
	default:
		select {
		case <-rt.hub.Bell():
		case <-rt.cancel: // closed for good, like expired: the next poll records it
		case <-rt.expired:
		case pd, ok := <-rt.peerDown:
			if ok {
				rt.abort(msg.AbortSiteDown, fmt.Sprintf("site %d: %v", pd.Site, pd.Err))
			} else {
				rt.peerDown = nil // closed without an event: stop watching it
			}
		}
	}
}
