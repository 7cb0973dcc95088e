package mpq

import (
	"context"
	"iter"
	"sync"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// Subscription is a live view over a prepared query: after delivering the
// query's current answers once, each Next call blocks until base facts
// added through AddFact or LoadData produce new answers, and returns only
// those. Retained node-process state inside the plan (the per-node
// deduplication sets, which double as semi-naive "seen" state) means a
// delta round re-derives nothing already delivered: the union of all
// rounds is byte-identical to evaluating the query from scratch on the
// grown database. See doc/SUBSCRIPTIONS.md for the design and the
// soundness argument. Only additions are supported; retracting facts
// invalidates a Subscription (the System has no retraction API today).
//
// A Subscription owns private engine state and must be used from one
// goroutine; distinct Subscriptions on one System are safe concurrently.
// Each delta round briefly holds the System's mutation lock, so rounds
// never overlap AddFact/LoadData.
type Subscription struct {
	pq    *PreparedQuery
	args  []string
	bind  []symtab.Sym
	inc   *engine.Incremental
	mu    sync.Mutex // guards one-goroutine misuse cheaply
	seen  uint64     // EDB version already folded into delivered rounds
	first bool       // true until the initial full round has run
}

// Subscription creates a live view with args bound to the query's
// parameters exactly as in Eval (no args: the source text's constants).
// No evaluation happens until the first Next call.
func (pq *PreparedQuery) Subscription(args ...string) (*Subscription, error) {
	bind, err := pq.bindSyms(args)
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		args = pq.defaults
	}
	return &Subscription{pq: pq, args: args, bind: bind, first: true,
		inc: pq.plan.Incremental(pq.run.engineOptions(nil, bind))}, nil
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
		// Obtain the wake channel BEFORE reading the version: a mutation
		// landing after the read still closes this channel, so the wait
		// below can never sleep through it.
		wake := sys.wakeChan()
		v := sys.EDBVersion()
		run := sub.first
		if !run && v != sub.seen {
			// Relevance filter: only mutations touching a base predicate
			// this plan reads can change its answers.
			preds := sub.pq.plan.Graph().EDBPreds
			for _, c := range sys.DB.ChangesSince(sub.seen) {
				if preds[c.Key] {
					run = true
					break
				}
			}
			if !run {
				sub.seen = v // irrelevant changes: never rescan them
			}
		}
		if run {
			rows, err := sub.round(ctx)
			if err != nil {
				return nil, err
			}
			first := sub.first
			sub.first = false
			if len(rows) > 0 || first {
				return rows, nil
			}
			continue // delta derived nothing new: wait for the next change
		}
		select {
		case <-wake:
		case <-ctxDone(ctx):
			return nil, engineError(engine.ErrCancelled, ctx)
		}
	}
}

// round runs one incremental round under the System's mutation lock (a
// round reads the base relations, which must not grow mid-scan) and
// returns its new answers rendered and sorted.
func (sub *Subscription) round(ctx context.Context) ([][]string, error) {
	sys := sub.pq.sys
	sys.mu.Lock()
	sub.seen = sys.DB.Version()
	var rows [][]string
	_, err := sub.inc.Round(ctxDone(ctx), func(t relation.Tuple) bool {
		row := make([]string, sub.pq.nout)
		for i := 0; i < sub.pq.nout; i++ {
			row[i] = sys.DB.Syms.String(t[i])
		}
		rows = append(rows, row)
		return true
	})
	sys.mu.Unlock()
	if err != nil {
		return nil, engineError(err, ctx)
	}
	sortTuples(rows)
	return rows, nil
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
