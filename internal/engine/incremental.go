// Incremental (delta-driven) re-evaluation: the engine is semi-naive by
// construction — every goal node's answer store and every rule node's
// subgoal temporaries are insert-triggered dedup sets, so the state left
// behind by a completed run IS the semi-naive "seen" state. Re-driving the
// same retained node processes after the EDB gained rows therefore
// re-derives exactly the consequences of the new rows: each base selection
// (an EDB leaf's, or a rule's for a base subgoal joined in place) seeds
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
// An Incremental draws its scratch from the Plan's pool at its first Round
// and keeps it until Close hands it back. It is NOT safe for concurrent
// use, and — like all evaluations — a Round must not overlap with EDB
// mutation; mutate strictly between rounds.
type Incremental struct {
	pl     *Plan
	opts   Options
	s      *scratch
	ran    bool // a round has run: the next one is a delta round
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
// after. Only this round's new answers come out: with a nil yield the
// returned Result's Answers holds them; otherwise yield receives each as it
// arrives and Answers is nil. cancel (optional) aborts the
// round like Options.Cancel. A round that returns an error leaves the
// retained state unreliable: every later Round returns
// ErrIncrementalBroken, as does every Round after Close.
func (inc *Incremental) Round(cancel <-chan struct{}, yield func(relation.Tuple) bool) (*Result, error) {
	if inc.broken {
		return nil, ErrIncrementalBroken
	}
	opts := inc.opts
	if cancel != nil {
		opts.Cancel = cancel
	}
	if inc.s == nil {
		// A pooled scratch is already built, so whether this is a delta
		// round is the Incremental's own record, not the scratch's.
		inc.s = inc.pl.get()
	}
	res, err := inc.pl.runOn(inc.s, opts, true, inc.ran, yield)
	inc.ran, inc.broken = true, err != nil
	return res, err
}

// Close ends the retained evaluation and hands its scratch back to the
// Plan: to the idle slot when that is empty, so the next evaluation of the
// plan reuses it before a garbage collection can empty the pool. A scratch
// that never got built is dropped. Every later Round fails.
func (inc *Incremental) Close() {
	if s := inc.s; s != nil && s.built {
		inc.pl.put(s)
	}
	inc.s, inc.broken = nil, true
}

// Retained estimates the bytes its node processes' stored relations hold:
// what keeping the evaluation alive costs.
func (inc *Incremental) Retained() int {
	n := 0
	if s := inc.s; s != nil {
		for _, p := range s.procs {
			if p != nil {
				n += p.retained()
			}
		}
		for _, f := range s.frames.free {
			n += cap(f) * 4
		}
		n += cap(s.frames.free) * tupleBytes
	}
	return n
}
