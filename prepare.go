package mpq

import (
	"container/list"
	"context"
	"fmt"
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// PreparedQuery is a query compiled once against a System and evaluable
// many times with different constants. Prepare canonicalizes the query's
// constants into parameters: each constant occurrence in the body becomes a
// fresh variable carried through to the entry goal, whose argument position
// is adorned "d" (dynamically bound) instead of "c" — so the rule/goal
// graph is built for the query's *shape*, and each evaluation seeds the
// parameters at runtime through the driver's initial tuple request, the
// same channel every interior node already uses. Re-evaluation therefore
// performs zero graph builds and zero index warming, and the engine's
// per-node scratch is pooled between runs (engine.Plan).
//
// A PreparedQuery is safe for concurrent use. It reads the System's base
// relations without locks, so — like all evaluations — it must not overlap
// with AddFact/LoadData mutation.
type PreparedQuery struct {
	sys      *System
	plan     *engine.Plan
	strategy string
	shape    string
	defaults []string // source-text constants: the bindings Eval() uses with no args
	nout     int      // answer columns (parameters are projected away)
	// run is what every evaluation of the plan starts from: the
	// Prepare-time WithStats accumulator (nil for per-call stats) and the
	// WithEDBDelay simulated retrieval latency. It keeps no profile.
	run config

	// choice is the auto planner's decision (nil for manual strategies)
	// and fingerprint the compiled graph's evaluation orders
	// (rgg.PlanFingerprint; auto plans only, which drift checks compare).
	// statsEpoch starts at the planning-time
	// statistics epoch and advances when a drift check re-scores the
	// candidates and finds this plan still best — it is atomic because
	// drift checks run concurrently with CacheKey readers.
	choice      *AutoChoice
	fingerprint string
	statsEpoch  atomic.Uint64
}

// parsedQuery is the outcome of canonicalizing one query's source text.
type parsedQuery struct {
	rule   ast.Rule // rewritten query rule: constants replaced by parameter variables
	consts []string // the replaced constants, in occurrence order
	shape  string   // canonical text: equal across queries differing only in constants
}

// paramVar names the i-th parameter. The "$" prefix cannot collide with
// user variables (the lexer only produces uppercase-initial names).
func paramVar(i int) string { return fmt.Sprintf("$p%d", i) }

func isParamVar(name string) bool { return strings.HasPrefix(name, "$p") }

// parseQuery parses src as a single query — `?- body.` or one explicit
// goal rule — and rewrites it into parameterized form: every constant
// occurrence in the body becomes a fresh parameter variable, appended to
// the head after the query's output variables. The head layout is then
//
//	goal(out..., params...)
//
// so answers project onto the leading nout columns and the parameter
// positions (all trailing) become the root's "d" positions in order.
func parseQuery(src string) (*parsedQuery, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Facts) > 0 || len(prog.Rules) != 1 || prog.Rules[0].Head.Pred != ast.GoalPred {
		return nil, fmt.Errorf("mpq: expected a single query (`?- body.` or one %s rule), got %d facts and %d rules",
			ast.GoalPred, len(prog.Facts), len(prog.Rules))
	}
	q := prog.Rules[0]
	for _, t := range q.Head.Args {
		if !t.IsVar() {
			return nil, fmt.Errorf("mpq: query head argument %s is a constant; bind it in the body instead", t)
		}
	}
	pq := &parsedQuery{}
	head := ast.Atom{Pred: ast.GoalPred, Args: append([]ast.Term(nil), q.Head.Args...)}
	body := make([]ast.Atom, len(q.Body))
	for i, a := range q.Body {
		args := make([]ast.Term, len(a.Args))
		for j, t := range a.Args {
			if t.IsVar() {
				args[j] = t
				continue
			}
			v := ast.V(paramVar(len(pq.consts)))
			pq.consts = append(pq.consts, t.Const)
			args[j] = v
			head.Args = append(head.Args, v)
		}
		body[i] = ast.Atom{Pred: a.Pred, Args: args}
	}
	pq.rule = ast.Rule{Head: head, Body: body}
	pq.shape = canonicalShape(pq.rule)
	return pq, nil
}

// canonicalShape renders the rewritten rule with user variables renamed
// V1, V2, ... in first-occurrence order and every parameter as "$", so two
// queries that differ only in their constants produce identical shapes —
// the plan-cache key property.
func canonicalShape(r ast.Rule) string {
	names := make(map[string]string)
	var b strings.Builder
	writeTerm := func(t ast.Term) {
		if isParamVar(t.Var) {
			b.WriteByte('$')
			return
		}
		n, ok := names[t.Var]
		if !ok {
			n = fmt.Sprintf("V%d", len(names)+1)
			names[t.Var] = n
		}
		b.WriteString(n)
	}
	writeAtom := func(a ast.Atom) {
		b.WriteString(a.Pred)
		for j, t := range a.Args {
			if j == 0 {
				b.WriteByte('(')
			} else {
				b.WriteByte(',')
			}
			writeTerm(t)
		}
		if len(a.Args) > 0 {
			b.WriteByte(')')
		}
	}
	writeAtom(r.Head)
	b.WriteString(" :- ")
	for i, a := range r.Body {
		if i > 0 {
			b.WriteByte(',')
		}
		writeAtom(a)
	}
	return b.String()
}

// Prepare compiles query — a `?- body.` query (or one explicit goal rule)
// evaluated against the System's loaded rules and facts, replacing any
// query rules the program itself defines — into a PreparedQuery. Options
// select the sideways-information-passing strategy; only the
// message-passing engine supports preparation. The graph build, adornment,
// and index warming all happen here, once; see PreparedQuery for the
// re-evaluation contract. WithProfile is ignored: the plan is shared by
// concurrent evaluations, and a Profile must not be.
func (s *System) Prepare(query string, opts ...Option) (*PreparedQuery, error) {
	cfg := newConfig(opts)
	if err := cfg.messagePassingOnly("Prepare"); err != nil {
		return nil, err
	}
	q, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	return s.prepare(q, &cfg)
}

// prepare builds the plan for an already-parsed query.
func (s *System) prepare(q *parsedQuery, cfg *config) (*PreparedQuery, error) {
	// The prepared rule replaces any query rules the program defines.
	prog := &ast.Program{}
	for _, r := range s.Program.Rules {
		if r.Head.Pred != ast.GoalPred {
			prog.Rules = append(prog.Rules, r)
		}
	}
	prog.Rules = append(prog.Rules, q.rule)
	arity := len(q.rule.Head.Args)
	nout := arity - len(q.consts)
	rootAd := make(adorn.Adornment, arity)
	for i := range rootAd {
		if i < nout {
			rootAd[i] = adorn.Free
		} else {
			rootAd[i] = adorn.Dynamic
		}
	}
	pq, err := s.compile(prog, rootAd, cfg)
	if err != nil {
		return nil, err
	}
	pq.shape, pq.defaults, pq.nout = q.shape, q.consts, nout
	return pq, nil
}

// compile is the one compile path, beneath Prepare, Query, Eval and
// Answers: it validates prog, builds its rule/goal graph under rootAd with
// the configured strategy (or the auto planner's choice), and binds the
// graph to the database as an engine plan, warming every index the graph
// probes under s.mu so simultaneous evaluations only ever read them. The
// plan answers every root column; prepare narrows that to the query's
// output columns.
func (s *System) compile(prog *ast.Program, rootAd adorn.Adornment, cfg *config) (*PreparedQuery, error) {
	if err := s.validate(prog); err != nil {
		return nil, err
	}
	name := normStrategy(cfg.strategyName)
	var g *rgg.Graph
	var choice *AutoChoice
	var err error
	if name == AutoStrategy {
		g, choice, err = s.chooseAuto(prog, rootAd, cfg.stats)
	} else {
		g, err = rgg.Build(prog, rgg.Options{Strategy: rgg.StrategyNamed(name).Make(s.DB, nil), RootAd: rootAd})
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	plan := engine.NewPlan(g, s.DB)
	s.mu.Unlock()
	pq := &PreparedQuery{sys: s, plan: plan, strategy: name, nout: len(g.Nodes[g.Root].Atom.Args),
		run: config{stats: cfg.stats, edbDelay: cfg.edbDelay}, choice: choice}
	if choice != nil {
		pq.fingerprint = rgg.PlanFingerprint(g)
		pq.statsEpoch.Store(choice.StatsEpoch)
	}
	return pq, nil
}

// NumParams reports how many constants the query text contained — the
// number of arguments Eval and Answers accept.
func (pq *PreparedQuery) NumParams() int { return len(pq.defaults) }

// Shape returns the canonical query shape this plan was compiled for (the
// plan-cache key, minus the strategy).
func (pq *PreparedQuery) Shape() string { return pq.shape }

// Graph exposes the compiled rule/goal graph for inspection.
func (pq *PreparedQuery) Graph() *rgg.Graph { return pq.plan.Graph() }

// CacheKey returns the System plan-cache key this plan is stored under:
// strategy, simulated-latency setting, and canonical shape, NUL-separated.
// Two queries with equal CacheKeys evaluate through the same compiled plan,
// so serving-layer result caches can key on
// (CacheKey, bound constants, System.EDBVersion) and never alias distinct
// plans. For auto plans the strategy segment records the planner's actual
// decision and its statistics epoch ("auto:cost@42"), so a drift
// re-optimization that changes the plan also changes the key — cached
// results can never be replayed against a plan they were not computed by.
func (pq *PreparedQuery) CacheKey() string {
	strategy := pq.strategy
	if pq.choice != nil {
		strategy = fmt.Sprintf("%s:%s@%d", AutoStrategy, pq.choice.Strategy, pq.statsEpoch.Load())
	}
	return planKey(strategy, pq.run.edbDelay, pq.shape)
}

// planKey builds the plan-cache key. It includes the WithEDBDelay setting
// (baked into the plan's run options), so configs differing in it never
// share a plan.
func planKey(strategy string, delay time.Duration, shape string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", strategy, delay, shape)
}

// bindSyms validates the arguments and interns them in parameter order —
// which is also root "d"-position order, since parameters occupy the
// trailing head positions in occurrence order.
func (pq *PreparedQuery) bindSyms(args []string) ([]symtab.Sym, error) {
	if len(args) == 0 {
		args = pq.defaults
	}
	if len(args) != len(pq.defaults) {
		return nil, fmt.Errorf("mpq: prepared query takes %d arguments, got %d", len(pq.defaults), len(args))
	}
	if len(args) == 0 {
		return nil, nil
	}
	bind := make([]symtab.Sym, len(args))
	for i, a := range args {
		bind[i] = pq.sys.DB.Syms.Intern(a)
	}
	return bind, nil
}

// Eval evaluates the prepared plan with args bound to the query's constant
// positions in source-occurrence order; with no args the source text's own
// constants are used. Answers are byte-identical to a fresh Load+Eval of
// the equivalent query. ctx cancellation and deadline abort the run with
// the dual-taxonomy errors described at WithContext; a nil ctx means
// context.Background.
func (pq *PreparedQuery) Eval(ctx context.Context, args ...string) (*Answer, error) {
	return pq.evalWith(ctx, args, &pq.run)
}

// evalWith is the collection core shared by both Evals and Query; cfg
// supplies the engine options (stats, profile, simulated latency). The
// yielded rows are rendered as they arrive and sorted once. Only the
// parameter columns are projected away: they are single-valued per run, so
// distinctness is preserved.
func (pq *PreparedQuery) evalWith(ctx context.Context, args []string, cfg *config) (*Answer, error) {
	bind, err := pq.bindSyms(args)
	if err != nil {
		return nil, err
	}
	r := pq.sys.renderer(pq.nout)
	res, err := pq.plan.RunStream(cfg.engineOptions(ctx, bind), r.keep)
	if err != nil {
		return nil, engineError(err, ctx)
	}
	return &Answer{Tuples: r.sorted(), Stats: res.Stats}, nil
}

// Answers is Eval in iterator shape: goal tuples are yielded in derivation
// order (unsorted, like System.Answers), breaking out of the range cancels
// the run, and a non-nil error is yielded at most once, last, with a nil
// tuple.
func (pq *PreparedQuery) Answers(ctx context.Context, args ...string) iter.Seq2[[]string, error] {
	return func(yield func([]string, error) bool) {
		pq.stream(ctx, args, &pq.run, yield)
	}
}

// stream is the streaming core shared by both Answers: it runs the plan
// with cfg's engine options and yields each answer as it arrives.
func (pq *PreparedQuery) stream(ctx context.Context, args []string, cfg *config, yield func([]string, error) bool) {
	bind, err := pq.bindSyms(args)
	if err != nil {
		yield(nil, err)
		return
	}
	r := pq.sys.renderer(pq.nout)
	stopped := false
	_, err = pq.plan.RunStream(cfg.engineOptions(ctx, bind), func(t relation.Tuple) bool {
		stopped = !yield(r.row(t), nil)
		return !stopped
	})
	if err != nil && !stopped {
		yield(nil, engineError(err, ctx))
	}
}

// normStrategy maps a strategy name onto the name compile will use
// (unknown and empty both select greedy), so plan-cache keys never alias
// two different graphs or split one. "auto" is its own name: auto plans
// are looked up under the requested strategy, while their CacheKey records
// the planner's decision.
func normStrategy(name string) string {
	if name == AutoStrategy {
		return name
	}
	return rgg.StrategyNamed(name).Name
}

// planCacheCap bounds the per-System plan cache. Eviction is LRU; a busy
// server re-compiles a shape only after planCacheCap distinct other shapes
// were queried since its last use.
const planCacheCap = 128

// planCache is an LRU map from (strategy, shape) to compiled plans. The
// zero value is ready to use.
type planCache struct {
	mu    sync.Mutex
	m     map[string]*list.Element
	order list.List // front = most recently used; element values are *planEntry
}

type planEntry struct {
	key string
	pq  *PreparedQuery
}

func (c *planCache) get(key string) *PreparedQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*planEntry).pq
	}
	return nil
}

func (c *planCache) put(key string, pq *PreparedQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*list.Element)
	}
	if el, ok := c.m[key]; ok {
		el.Value.(*planEntry).pq = pq
		c.order.MoveToFront(el)
		return
	}
	c.m[key] = c.order.PushFront(&planEntry{key: key, pq: pq})
	for len(c.m) > planCacheCap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.m, el.Value.(*planEntry).key)
	}
}

// Len reports how many compiled plans the cache holds.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// QueryPrepared resolves src — a `?- body.` query against the loaded
// program — through the System's plan cache without evaluating it: it
// returns the compiled plan, src's own constants (the arguments to pass to
// the plan's Eval or Answers), and whether the plan was reused from the
// cache (reused == true guarantees this call performed zero graph builds).
// Hits and misses are counted into WithStats's accumulator when given,
// feeding the Prometheus mpq_plan_cache_total series; the same accumulator
// is installed as the plan's Prepare-time stats sink on a miss.
//
// This is the serving-layer primitive beneath Query: resolve once, then
// stream with pq.Answers(ctx, args...). Two concurrent misses on one shape
// may both compile; the cache keeps the later plan and both are correct.
func (s *System) QueryPrepared(src string, opts ...Option) (pq *PreparedQuery, args []string, reused bool, err error) {
	cfg := newConfig(opts)
	return s.queryPrepared(src, &cfg)
}

func (s *System) queryPrepared(src string, cfg *config) (*PreparedQuery, []string, bool, error) {
	if err := cfg.messagePassingOnly("Query"); err != nil {
		return nil, nil, false, err
	}
	q, err := parseQuery(src)
	if err != nil {
		return nil, nil, false, err
	}
	key := planKey(normStrategy(cfg.strategyName), cfg.edbDelay, q.shape)
	if pq := s.plans.get(key); pq != nil {
		if npq := s.maybeReopt(pq, q, cfg); npq != nil {
			s.plans.put(key, npq)
			pq = npq
		}
		if cfg.stats != nil {
			cfg.stats.PlanHit()
		}
		return pq, q.consts, true, nil
	}
	if cfg.stats != nil {
		cfg.stats.PlanMiss()
	}
	pq, err := s.prepare(q, cfg)
	if err != nil {
		return nil, nil, false, err
	}
	s.plans.put(key, pq)
	return pq, q.consts, false, nil
}

// maybeReopt checks a cached auto plan for statistics drift and, when the
// EDB has grown past the configured threshold since the plan's statistics
// were read, re-runs the candidate scoring. It returns a replacement plan
// when the fresh decision differs from the cached one (strategy or any
// rule's evaluation order — counted as a PlanReopt); when the cached plan
// is still best it advances the plan's statistics epoch so the next drift
// check measures from now, and returns nil. Manual plans never re-opt.
//
// Replacement never mutates the cached plan: evaluations already running
// on it finish undisturbed, and the cache swap makes the new plan visible
// to subsequent lookups (both plans are correct; the engine's answers do
// not depend on the ordering, only its cost does).
func (s *System) maybeReopt(pq *PreparedQuery, q *parsedQuery, cfg *config) *PreparedQuery {
	if pq.choice == nil {
		return nil
	}
	th := cfg.reoptThreshold
	if th == 0 {
		th = DefaultReoptThreshold
	}
	if th < 0 {
		return nil
	}
	now, epoch := s.DB.Version(), pq.statsEpoch.Load()
	if now <= epoch {
		return nil
	}
	base := epoch
	if base < reoptMinEpoch {
		base = reoptMinEpoch
	}
	if float64(now-epoch)/float64(base) < th {
		return nil
	}
	npq, err := s.prepare(q, cfg)
	if err != nil {
		return nil // keep serving the cached plan
	}
	if npq.choice != nil && npq.choice.Strategy == pq.choice.Strategy && npq.fingerprint == pq.fingerprint {
		pq.statsEpoch.Store(npq.statsEpoch.Load())
		return nil
	}
	if cfg.stats != nil {
		cfg.stats.PlanReopt()
	}
	return npq
}

// Query evaluates src — a `?- body.` query against the loaded program —
// through the System's plan cache: the first evaluation of a query shape
// compiles and caches a PreparedQuery (a plan-cache miss); later queries
// differing only in constants reuse it (a hit), performing zero graph
// builds. Answer.Reused reports which happened; hits and misses are also
// counted in the returned Answer.Stats (and in WithStats's accumulator,
// feeding the Prometheus mpq_plan_cache_total series).
//
// ctx governs cancellation as in WithContext (nil means background);
// WithStrategy selects the graph and keys the cache alongside the shape;
// WithProfile profiles this evaluation, hit or miss.
func (s *System) Query(ctx context.Context, src string, opts ...Option) (*Answer, error) {
	cfg := newConfig(opts)
	if cfg.stats == nil {
		cfg.stats = &trace.Stats{}
	}
	pq, args, reused, err := s.queryPrepared(src, &cfg)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		cfg.ctx = ctx
	}
	ans, err := pq.evalWith(cfg.evalContext(), args, &cfg)
	if err != nil {
		return nil, err
	}
	ans.Reused = reused
	return ans, nil
}
