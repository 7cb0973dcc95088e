package mpq

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/costmodel"
	"repro/internal/rgg"
	"repro/internal/trace"
)

// AutoStrategy is the WithStrategy name that enables adaptive planning:
// the system snapshots the EDB's statistics (cardinalities + per-column
// distinct sketches, see edb.Stats), scores every candidate strategy's
// compiled graph under the stats-backed cost model, and evaluates through
// the cheapest one. Cached auto plans are re-optimized when the
// statistics drift past the threshold (WithReoptThreshold); see
// doc/PLANNING.md for the decision rules.
const AutoStrategy = "auto"

// ErrNoStats reports that auto planning found no EDB statistics to work
// from (an empty database). The planner does not fail: it falls back to
// the greedy strategy and records this sentinel in AutoChoice.Fallback,
// so callers can distinguish a costed decision from a default. Test with
// errors.Is.
var ErrNoStats = costmodel.ErrNoStats

// DefaultReoptThreshold is the statistics-drift fraction past which a
// cached auto plan is re-optimized: re-planning triggers when the EDB has
// grown by half again since the plan's statistics were read (see
// WithReoptThreshold).
const DefaultReoptThreshold = 0.5

// reoptMinEpoch floors the drift ratio's denominator so a nearly empty
// database (epoch of a few facts) does not re-plan on every insert.
const reoptMinEpoch = 16

// AutoChoice records one adaptive-planning decision.
type AutoChoice struct {
	// Strategy is the winning candidate: the name of an rgg.Strategies
	// entry marked Candidate ("cost" is exhaustive ordering under the
	// stats-backed model, rgg.TableStrategy).
	Strategy string
	// CostLog is the winner's estimated log10 cost (rgg.GraphCostLog).
	CostLog float64
	// Candidates maps every scored candidate to its estimated log10 cost.
	// Empty when planning fell back (no statistics).
	Candidates map[string]float64
	// StatsEpoch is the EDB version the planning statistics were read at.
	StatsEpoch uint64
	// StatsRows is the total EDB cardinality those statistics described.
	StatsRows int
	// Fallback is non-nil when no statistics were available and the
	// greedy default was used; it satisfies errors.Is(·, ErrNoStats).
	Fallback error
}

// chooseAuto runs one adaptive-planning decision for prog under rootAd:
// snapshot statistics, build every candidate's graph in rgg.Strategies
// order, score each under the stats-backed cost model, keep the cheapest
// (ties go to the earliest). With no statistics it falls back to greedy
// and records ErrNoStats. The decision and the statistics refresh are
// counted into st (StrategyAuto*, StatsRefreshes).
func (s *System) chooseAuto(prog *ast.Program, rootAd adorn.Adornment, st *trace.Stats) (*rgg.Graph, *AutoChoice, error) {
	est := s.DB.Stats()
	if st != nil {
		st.StatsRefresh()
	}
	choice := &AutoChoice{StatsEpoch: est.Epoch, StatsRows: est.Rows}
	table, err := costmodel.FromStats(est)
	if err != nil {
		greedy := rgg.StrategyNamed("")
		choice.Strategy = greedy.Name
		choice.Fallback = fmt.Errorf("mpq: auto planning fell back to %s: %w", greedy.Name, err)
		g, berr := rgg.Build(prog, rgg.Options{Strategy: greedy.Make(s.DB, nil), RootAd: rootAd})
		if berr != nil {
			return nil, nil, berr
		}
		if st != nil {
			st.StrategyAuto(choice.Strategy)
		}
		return g, choice, nil
	}
	choice.Candidates = make(map[string]float64)
	var bestG *rgg.Graph
	best := math.Inf(1)
	for _, cand := range rgg.Strategies {
		if !cand.Candidate {
			continue
		}
		g, berr := rgg.Build(prog, rgg.Options{Strategy: cand.Make(s.DB, table), RootAd: rootAd})
		if berr != nil {
			return nil, nil, berr
		}
		cost := rgg.GraphCostLog(g, table)
		choice.Candidates[cand.Name] = cost
		if cost < best {
			best, bestG = cost, g
			choice.Strategy = cand.Name
		}
	}
	choice.CostLog = best
	if st != nil {
		st.StrategyAuto(choice.Strategy)
	}
	return bestG, choice, nil
}

// Choice returns the auto planner's decision behind this plan, or nil
// when it was prepared with a manual strategy.
func (pq *PreparedQuery) Choice() *AutoChoice { return pq.choice }

// ChosenStrategy names the strategy the plan actually compiled with: the
// auto planner's winning candidate, or the manual strategy as requested.
func (pq *PreparedQuery) ChosenStrategy() string {
	if pq.choice != nil {
		return pq.choice.Strategy
	}
	return pq.strategy
}

// PlanSummary is the one-line plan description the serving layer logs on
// plan-cache misses: the chosen strategy (with the auto provenance and
// estimated log10 cost when adaptive planning ran).
func (pq *PreparedQuery) PlanSummary() string {
	c := pq.choice
	if c == nil {
		return "strategy=" + pq.strategy
	}
	if c.Fallback != nil {
		return fmt.Sprintf("strategy=%s(auto fallback: no stats)", c.Strategy)
	}
	return fmt.Sprintf("strategy=%s(auto) est_cost_log10=%.2f stats_epoch=%d", c.Strategy, c.CostLog, c.StatsEpoch)
}

// ExplainPlan renders the compiled plan as an indented tree (the same
// conventions as the bottomup proof explainer): one line per rule node in
// the rule/goal graph, each followed by its subgoals in SIP evaluation
// order with their estimated retrieval sizes under the current EDB
// statistics. For auto plans the header also reports every candidate's
// score, so "why this strategy" is answerable from the output alone.
func (pq *PreparedQuery) ExplainPlan() string {
	text, _ := pq.explain("plan " + pq.shape + " " + pq.PlanSummary())
	return text
}

// ExplainPlan compiles the program's query under the configured strategy
// (WithStrategy; "auto" runs the adaptive planner) and renders the plan
// tree without evaluating it, returning the text and the plan's total
// estimated log10 cost — the "estimated" half of `mpq -explain plan`'s
// estimated-vs-observed report.
func (s *System) ExplainPlan(opts ...Option) (string, float64, error) {
	cfg := newConfig(opts)
	pq, err := s.compile(s.Program, nil, &cfg)
	if err != nil {
		return "", 0, err
	}
	text, est := pq.explain("plan " + pq.PlanSummary())
	return text, est, nil
}

// explain renders the plan under header: the auto scoreboard, then every
// rule node's SIP order and estimates. It also returns the plan's total
// estimated log10 cost.
func (pq *PreparedQuery) explain(header string) (string, float64) {
	var b strings.Builder
	b.WriteString(header + "\n")
	writeCandidates(&b, pq.choice)
	est := explainGraph(&b, pq.plan.Graph(), pq.sys)
	return b.String(), est
}

// writeCandidates appends the auto planner's scoreboard line ("why this
// strategy"): every candidate's estimated log10 cost, the winner starred.
func writeCandidates(b *strings.Builder, c *AutoChoice) {
	if c == nil || len(c.Candidates) == 0 {
		return
	}
	names := make([]string, 0, len(c.Candidates))
	for n := range c.Candidates {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteString("  candidates:")
	for _, n := range names {
		marker := ""
		if n == c.Strategy {
			marker = "*"
		}
		fmt.Fprintf(b, " %s=%.2f%s", n, c.Candidates[n], marker)
	}
	b.WriteString("\n")
}

// explainGraph renders every rule node's SIP order and per-step
// intermediate-size estimates under the current EDB statistics (falling
// back to the fixed §4.3 model when the database is empty) and returns
// the graph's total estimated log10 cost under the same model.
func explainGraph(b *strings.Builder, g *rgg.Graph, sys *System) float64 {
	table, terr := costmodel.FromStats(sys.DB.Stats())
	total := math.Inf(-1)
	for _, n := range g.Nodes {
		if n.Kind != rgg.Rule || n.SIP == nil {
			continue
		}
		var est costmodel.Estimate
		if terr == nil {
			est = costmodel.EstimateSIPStats(n.SIP, table)
		} else {
			est = costmodel.EstimateSIP(n.SIP, costmodel.Default())
		}
		total = addLogCost(total, est.CostLog)
		fmt.Fprintf(b, "  rule %s order=%v est_cost_log10=%.2f\n", n.Rule, n.SIP.Order, est.CostLog)
		for step, i := range n.SIP.Order {
			size := math.Inf(-1)
			if step < len(est.StepSizes) {
				size = est.StepSizes[step]
			}
			fmt.Fprintf(b, "    %d. %s [intermediate ~10^%.1f rows]\n", step+1, n.Rule.Body[i], size)
		}
	}
	if terr != nil {
		fmt.Fprintf(b, "  [no EDB statistics; estimates use the fixed §4.3 model]\n")
	}
	if math.IsInf(total, -1) {
		return 0
	}
	return total
}

// addLogCost sums two log10 quantities (log10(10^a + 10^b)), tolerating
// the -Inf identity.
func addLogCost(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log10(1+math.Pow(10, b-a))
}
