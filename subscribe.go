package mpq

import (
	"context"
	"errors"
	"iter"
	"sync"

	"repro/internal/engine"
)

// Subscription is a live view over a prepared query: after delivering the
// query's current answers once, each Next call blocks until base facts
// added through AddFact or LoadData produce new answers, and returns only
// those; Poll is the same catch-up without the wait. Retained node-process
// state inside the plan (the per-node deduplication sets, which double as
// semi-naive "seen" state) means a delta round re-derives nothing already
// delivered: the union of all rounds is byte-identical to evaluating the
// query from scratch on the grown database. See doc/SUBSCRIPTIONS.md for
// the design and the soundness argument. Only additions are supported;
// retracting facts invalidates a Subscription (the System has no retraction
// API today).
//
// A Subscription owns private engine state until Close and must be used
// from one goroutine; distinct Subscriptions on one System are safe
// concurrently. Each round holds the System's mutation lock, so rounds
// never overlap AddFact/LoadData.
type Subscription struct {
	pq     *PreparedQuery
	inc    *engine.Incremental
	mu     sync.Mutex // guards one-goroutine misuse cheaply
	seen   uint64     // EDB version already folded into delivered rounds
	first  bool       // true until the initial full round has run
	closed bool
}

// errClosed is what Next and Poll return after Close.
var errClosed = errors.New("mpq: subscription closed")

// Subscription creates a live view with args bound to the query's
// parameters exactly as in Eval (no args: the source text's constants).
// No evaluation happens until the first Next or Poll call.
func (pq *PreparedQuery) Subscription(args ...string) (*Subscription, error) {
	bind, err := pq.bindSyms(args)
	if err != nil {
		return nil, err
	}
	return &Subscription{pq: pq, first: true, inc: pq.plan.Incremental(pq.run.engineOptions(nil, bind))}, nil
}

// Next returns the next batch of answers: the query's full current answer
// set on the first call (possibly empty), and afterwards exactly the
// answers made newly derivable by mutations since the previous call —
// blocking until a mutation yields at least one. Rows are rendered and
// sorted like Eval's, so each batch is deterministic for a given EDB
// state. A nil ctx never times out. After any error the Subscription is
// broken and every later Next fails.
func (sub *Subscription) Next(ctx context.Context) ([][]string, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sys := sub.pq.sys
	for {
		// Obtain the wake channel BEFORE polling: a mutation landing after
		// the poll read the version still closes this channel, so the wait
		// below can never sleep through it.
		wake := sys.wakeChan()
		first := sub.first
		rows, err := sub.poll(ctx)
		if err != nil {
			return nil, err
		}
		if len(rows) > 0 || first {
			sortTuples(rows)
			return rows, nil
		}
		select {
		case <-wake:
		case <-ctxDone(ctx):
			return nil, engineError(engine.ErrCancelled, ctx)
		}
	}
}

// Poll brings the view up to the current EDB version without waiting. The
// first call runs the full round and returns the query's current answers
// (non-nil, possibly empty). A later call runs one delta round when
// mutations since the last round touched a base predicate the plan reads,
// and returns that round's new answers, non-nil even when there are none;
// otherwise it runs nothing and returns nil. Rows come in derivation
// order, as from Answers. After any error the Subscription is broken and
// every later round fails.
func (sub *Subscription) Poll(ctx context.Context) ([][]string, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.poll(ctx)
}

func (sub *Subscription) poll(ctx context.Context) ([][]string, error) {
	if sub.closed {
		return nil, errClosed
	}
	sys := sub.pq.sys
	if !sub.first {
		v := sys.EDBVersion()
		if v == sub.seen {
			return nil, nil
		}
		if !sub.relevant() {
			sub.seen = v // irrelevant changes: never rescan them
			return nil, nil
		}
	}
	// One round under the System's mutation lock: a round reads the base
	// relations, which must not grow mid-scan.
	sys.mu.Lock()
	sub.seen = sys.DB.Version()
	r := sys.renderer(sub.pq.nout)
	_, err := sub.inc.Round(ctxDone(ctx), r.keep)
	sys.mu.Unlock()
	if err != nil {
		return nil, engineError(err, ctx)
	}
	sub.first = false
	return r.rows, nil
}

// relevant reports whether a mutation since the last round touched a base
// predicate the plan reads: only those can change its answers.
func (sub *Subscription) relevant() bool {
	preds := sub.pq.plan.Graph().EDBPreds
	for _, c := range sub.pq.sys.DB.ChangesSince(sub.seen) {
		if preds[c.Key] {
			return true
		}
	}
	return false
}

// Version reports the EDB version the delivered rounds cover: every
// mutation at or below it has either been folded into a returned batch or
// proven irrelevant to the query. Serving layers stamp it on round frames
// so clients can correlate deltas with mutations.
func (sub *Subscription) Version() uint64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.seen
}

// Retained estimates the bytes the view's retained engine state holds (its
// node processes' stored relations): what keeping it alive costs.
func (sub *Subscription) Retained() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.inc.Retained()
}

// Close ends the view and hands its engine state back to the prepared
// query's pool, where the next evaluation of the query reuses it. Every
// later Next and Poll fails. Like Next, it must not overlap another call.
func (sub *Subscription) Close() {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.inc.Close()
	sub.closed = true
}

// Subscribe is the iterator form of a Subscription: it yields the query's
// current answers (one tuple at a time, in Eval's sorted order), then
// blocks for mutations and yields each newly derivable answer, until ctx
// is done or the caller breaks out of the range. The terminal context
// error is yielded last with a nil tuple; breaking out yields nothing
// further. Args bind the query's parameters as in Eval.
func (pq *PreparedQuery) Subscribe(ctx context.Context, args ...string) iter.Seq2[[]string, error] {
	return func(yield func([]string, error) bool) {
		sub, err := pq.Subscription(args...)
		if err != nil {
			yield(nil, err)
			return
		}
		for {
			rows, err := sub.Next(ctx)
			if err != nil {
				yield(nil, err)
				return
			}
			for _, row := range rows {
				if !yield(row, nil) {
					return
				}
			}
		}
	}
}
