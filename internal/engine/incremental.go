// Incremental (delta-driven) re-evaluation: the engine is semi-naive by
// construction — every goal node's answer store and every rule node's
// subgoal temporaries are insert-triggered dedup sets, so the state left
// behind by a completed run IS the semi-naive "seen" state. Re-driving the
// same retained node processes after the EDB gained rows therefore
// re-derives exactly the consequences of the new rows: each EDB leaf seeds
// only its delta window (the base-relation rows appended since the previous
// round), every dedup set silently absorbs re-derivations of old tuples,
// and only genuinely new answers reach the driver.
//
// The delta round reuses the ordinary Fig 2 machinery end to end. The
// driver re-issues RelReq/TupReq/ReqEnd; relReq flags were reset, so the
// relation request sweeps the tree once more (one message per edge),
// re-arming End emission; watermark counters (feedState.sent/acked,
// customer reqCount, rule headReqCount, lastWatermark) are cumulative
// across rounds, so the End accounting needs no special cases — both sides
// of every edge count from the same origin. See doc/SUBSCRIPTIONS.md for
// the soundness argument and doc/PROTOCOL.md §5c for the wire view.
//
// Additions only: retracting a base tuple would require revising the dedup
// sets (a counting semiring over derivations); see the future-work note in
// doc/SUBSCRIPTIONS.md.
package engine

import (
	"errors"

	"repro/internal/relation"
)

// ErrIncrementalBroken marks an Incremental whose previous round failed:
// the retained node state may have absorbed a partial propagation, so
// further delta rounds could under-report. Discard the handle and start a
// fresh one.
var ErrIncrementalBroken = errors.New("engine: incremental evaluation broken by an earlier error; discard and re-create")

// Incremental is a retained evaluation of one Plan: the first Round is an
// ordinary full run, and every later Round re-drives the SAME node
// processes — dedup sets, per-node temporaries, and watermark counters
// intact — seeding only the base-relation rows added since the previous
// round and yielding only the answers that are new. The union of all
// rounds' answers is byte-identical to a fresh full evaluation at the
// current EDB (see doc/SUBSCRIPTIONS.md).
//
// An Incremental owns its scratch permanently (it never returns to the
// Plan's pool: its state diverges from just-constructed). It is NOT safe
// for concurrent use, and — like all evaluations — a Round must not overlap
// with EDB mutation; mutate strictly between rounds.
type Incremental struct {
	pl     *Plan
	opts   Options
	s      *scratch
	broken bool
}

// Incremental starts a retained evaluation of the plan. opts plays the role
// it has in Plan.Run for every round (Bind seeds the root's "d" positions
// each time; Stats accumulates across rounds); per-round cancellation is
// the Round parameter.
func (pl *Plan) Incremental(opts Options) *Incremental {
	return &Incremental{pl: pl, opts: opts}
}

// Round runs one evaluation round: a full run the first time, a delta round
// after. yield (optional) streams answers as they arrive; the returned
// Result holds this round's new answers only. cancel (optional) aborts the
// round like Options.Cancel. A round that returns an error leaves the
// retained state unreliable: every later Round returns
// ErrIncrementalBroken.
func (inc *Incremental) Round(cancel <-chan struct{}, yield func(relation.Tuple) bool) (*Result, error) {
	if inc.broken {
		return nil, ErrIncrementalBroken
	}
	opts := inc.opts
	if cancel != nil {
		opts.Cancel = cancel
	}
	if inc.s == nil {
		inc.s = inc.pl.newScratch()
	}
	// The scratch is built by the first round that runs; rounds after it are
	// delta rounds, and only a round that ran can break the retained state.
	res, err := inc.pl.runOn(inc.s, opts, inc.s.built, yield)
	inc.broken = err != nil && inc.s.built
	return res, err
}
