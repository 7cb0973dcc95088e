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
// the soundness argument and doc/PROTOCOL.md §5d for the wire view.
//
// Additions only: retracting a base tuple would require revising the dedup
// sets (a counting semiring over derivations); see the future-work note in
// doc/SUBSCRIPTIONS.md.
package engine

import (
	"errors"

	"repro/internal/relation"
	"repro/internal/transport"
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
	ran    bool
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
		partitions := opts.Partitions
		if partitions < 2 {
			partitions = 0
		}
		n := len(inc.pl.g.Nodes)
		inc.s = &scratch{local: transport.NewLocal(n + 1), procs: make([]*proc, n),
			partitions: partitions}
	}
	s := inc.s
	rt, err := newRunner(inc.pl.g, inc.pl.db, s.local, opts, nil, 0)
	if err != nil {
		return nil, err
	}
	rt.local = s.local
	if inc.ran {
		rt.delta = true
		rt.stats.DeltaRound()
		s.local.Boxes[rt.driver].Reset()
		for _, p := range s.procs {
			p.deltaReset(rt)
		}
	} else {
		for id := range inc.pl.g.Nodes {
			s.procs[id] = newProc(rt, id, s.local.Boxes[id])
		}
	}
	inc.ran = true
	stop := rt.startWatch(opts)
	for _, p := range s.procs {
		rt.spawn(p)
	}
	answers, runErr := rt.driveStream(s.local.Boxes[rt.driver], yield)
	stop()
	s.local.Close() // Mailbox.Reset reopens the boxes next round
	rt.wg.Wait()
	rt.stats.DroppedPuts(s.local.Dropped())
	if runErr != nil {
		inc.broken = true
		return nil, runErr
	}
	return &Result{Answers: answers, Stats: rt.stats.Snapshot()}, nil
}

// ---- delta reset ----------------------------------------------------------
//
// deltaReset prepares a node process for the NEXT round while keeping
// everything the semi-naive re-evaluation relies on:
//
//   kept (cumulative / memo state)          reset (per-round liveness)
//   ------------------------------          --------------------------
//   feedState.sent / acked                  feedState.allEnd
//   customer registered / asked / reqCount   customer reqEnd / allSent
//     / lastWatermark                         / deltaEnded
//   goal reqs / answers                     relReqForwarded
//   rule hb / sentHeads / subs[i].rel       relReqReceived
//     / sentReqs                            Fig 2 state, mailboxes,
//                                             output buffers
//   worker work counters / workAtProbe
//
// Keeping both sides of each watermark pair (sent/acked, reqCount/
// lastWatermark) cumulative is what lets the unmodified End accounting
// carry over: a delta round that sends k new requests down an edge raises
// sent by k and the child's eventual End{N} by the same k. Resetting
// allEnd/allSent/reqEnd re-arms the final End{All} chain, which the
// re-swept relation request re-triggers once the round settles.

func (p *proc) deltaReset(rt *runner) {
	p.rt = rt
	p.shard = nil
	if rt.prof != nil {
		if p.wk != nil {
			p.shard = rt.prof.WorkerShard(p.id, p.wk.idx, p.wk.ps.spec.n)
		} else {
			p.shard = rt.prof.Shard(p.id)
		}
	}
	for _, f := range p.feeds {
		f.allEnd = false // sent/acked stay: cumulative across rounds
		f.drained = false
	}
	p.idleness, p.round, p.waitingFor = 0, 0, 0
	p.anyNeg, p.inRound, p.confirmed = false, false, false
	p.clearOutput()
	p.box.Reset()
	switch {
	case p.part != nil:
		p.part.deltaReset(rt)
	case p.goal != nil:
		p.goal.deltaReset()
	default:
		p.rule.deltaReset()
	}
}

func (ps *partState) deltaReset(rt *runner) {
	for i := range ps.customers {
		ps.customers[i].deltaReset()
	}
	ps.relReqReceived = false
	// workAtProbe and the worker completion counters stay: each is compared
	// only against its cumulative counterpart.
	for _, w := range ps.workers {
		w.deltaReset(rt)
	}
}

func (g *goalState) deltaReset() {
	for i := range g.customers {
		g.customers[i].deltaReset()
	}
	g.relReqForwarded = false
	// reqs and answers stay: the memo state.
}

func (r *ruleState) deltaReset() {
	// hb, sentHeads and subs[i].{rel,sentReqs} stay: the memo state.
	r.relReqReceived = false
	r.parent.deltaReset()
}
