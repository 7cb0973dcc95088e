// Package mpq is a message-passing logical query evaluator: a full
// implementation of Van Gelder's "A Message Passing Framework for Logical
// Query Evaluation" (SIGMOD 1986).
//
// A System holds a function-free Horn program — an extensional database of
// facts, intensional rules, and query rules for the distinguished predicate
// "goal" — and evaluates the query the paper's way: the query is compiled
// into an information-passing rule/goal graph whose nodes run as
// cooperating processes communicating only by messages; sideways
// information passing restricts computation to (potentially) relevant
// tuples, and recursive cycles terminate via the paper's distributed
// protocol.
//
// The §1.1 baselines — naive and semi-naive bottom-up evaluation, the
// magic-sets rewrite and brute-force ground instantiation — are this
// module's test oracles. They live in internal/bottomup and internal/magic,
// which the tests, `mpq -engine` and `mpq -explain FACT` call directly.
//
// # Quickstart
//
//	sys, err := mpq.Load(`
//	    edge(a, b). edge(b, c).
//	    path(X, Y) :- edge(X, Y).
//	    path(X, Y) :- path(X, U), edge(U, Y).
//	    goal(Y) :- path(a, Y).
//	`)
//	if err != nil { ... }
//	ans, err := sys.Eval()
//	for _, t := range ans.Tuples { fmt.Println(t) }
package mpq

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// System is a loaded program plus its extensional database. Program holds
// the rules only (its Facts are empty); the facts live in DB.
//
// Concurrent Eval/Answers/Query calls and concurrent evaluations of one
// PreparedQuery on one System are safe. Mutation (AddFact, LoadData) is
// internally locked against other mutation and against index warming, but
// must not overlap with running evaluations: each base read takes the
// store's read lock, yet an evaluation assumes the base relations fixed for
// its whole run — rules probe them in place, and delta rounds read windows
// bounded at the round's start.
type System struct {
	Program *ast.Program
	DB      *edb.Database

	mu       sync.Mutex // serializes mutation and index warming
	plans    planCache  // compiled query shapes, LRU (see Query)
	recovery Recovery   // how OpenSystem brought the system up

	// subMu guards subCh, the mutation wake-up channel for subscriptions.
	// notifyMutation closes it (waking every waiter) strictly after the
	// database version bump is visible, so a woken subscriber that re-reads
	// EDBVersion always observes the mutation it was woken for.
	subMu sync.Mutex
	subCh chan struct{}
}

// wakeChan returns a channel that the next successful mutation closes.
// Subscribers must obtain the channel BEFORE reading EDBVersion: then a
// mutation that lands between the version read and the wait still closes
// this (already obtained) channel, so no wake-up is ever lost.
func (s *System) wakeChan() <-chan struct{} {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subCh == nil {
		s.subCh = make(chan struct{})
	}
	return s.subCh
}

// notifyMutation wakes subscription waiters. Callers invoke it after
// releasing s.mu, so the version bump (and result-cache invalidation that
// keys on it) is already visible to anything the wake-up unblocks.
func (s *System) notifyMutation() {
	s.subMu.Lock()
	if s.subCh != nil {
		close(s.subCh)
		s.subCh = nil
	}
	s.subMu.Unlock()
}

// SystemOption configures system construction (Load, LoadFile, OpenSystem).
type SystemOption func(*sysConfig)

type sysConfig struct {
	storage edb.Storage
}

// WithStorage backs the system with the given storage engine instead of
// the default (a fresh in-memory store, or a temporary disk store when the
// MPQ_STORE=disk environment variable is set). The program's facts are
// loaded into it on top of whatever it already holds — duplicate inserts
// are no-ops, so handing a reopened edb.OpenDisk store to Load replays the
// program without disturbing the store's version. Load always reads every
// fact; OpenSystem skips that when the store's program record shows the
// program unchanged. The System takes ownership: Close closes the store.
func WithStorage(st edb.Storage) SystemOption {
	return func(c *sysConfig) { c.storage = st }
}

// load builds a System over the configured (or default) store. parse
// reads the program, handing each ground fact to the sink it is given; a
// loader interns the fact's constants and stages the row, and only once the
// whole program has parsed and validated are the staged rows inserted — a
// failed load inserts no row. It also returns the predicates the program
// has facts for, in first-fact order.
func load(opts []SystemOption, parse func(fact func(string, []string) error) (*ast.Program, error)) (*System, []ast.PredKey, error) {
	var c sysConfig
	for _, o := range opts {
		o(&c)
	}
	var db *edb.Database
	if c.storage != nil {
		db = edb.FromStorage(c.storage)
	} else {
		db = edb.New()
	}
	ld := &loader{syms: db.Syms, index: make(map[ast.PredKey]int32), last: -1}
	prog, err := parse(ld.fact)
	if err == nil {
		err = prog.ValidateRules(ld.isEDB, true)
	}
	if err != nil {
		if c.storage == nil {
			db.Close()
		}
		return nil, nil, err
	}
	ld.commit(db)
	return &System{Program: prog, DB: db}, ld.keys, nil
}

// loader stages a program's facts as the parser reads them: each row is
// its predicate's index in a small predicate table plus its interned
// constants, appended to one flat symbol slice.
type loader struct {
	syms  *symtab.Table
	keys  []ast.PredKey // the predicate table
	index map[ast.PredKey]int32
	last  int32        // the previous fact's predicate: facts come in runs
	preds []int32      // per staged row, its predicate
	args  []symtab.Sym // the staged rows' constants, back to back
}

func (ld *loader) fact(pred string, args []string) error {
	p := ld.last
	if p < 0 || ld.keys[p].Name != pred || ld.keys[p].Arity != len(args) {
		key := ast.PredKey{Name: pred, Arity: len(args)}
		var ok bool
		if p, ok = ld.index[key]; !ok {
			key.Name = strings.Clone(pred) // pred is a view of the source text
			p = int32(len(ld.keys))
			ld.keys = append(ld.keys, key)
			ld.index[key] = p
		}
		ld.last = p
	}
	ld.preds = append(ld.preds, p)
	for _, a := range args {
		ld.args = append(ld.args, ld.syms.Intern(a))
	}
	return nil
}

// isEDB reports whether the program has facts for key: no rule may define
// such a predicate.
func (ld *loader) isEDB(key ast.PredKey) bool {
	_, ok := ld.index[key]
	return ok
}

// commit inserts the staged rows in source order.
func (ld *loader) commit(st edb.Storage) {
	off := 0
	for _, p := range ld.preds {
		key := ld.keys[p]
		st.Insert(key, ld.args[off:off+key.Arity])
		off += key.Arity
	}
}

// Load parses and validates Datalog source, loading its facts into a fresh
// database (or the store given via WithStorage). The program must define
// at least one query rule (head predicate "goal", or the `?- body.`
// sugar). The System's Program holds the rules; the facts live only in
// its DB.
func Load(source string, opts ...SystemOption) (*System, error) {
	sys, _, err := load(opts, func(fact func(string, []string) error) (*ast.Program, error) {
		return parser.ParseInto(source, fact)
	})
	return sys, err
}

// LoadFile reads and Loads the named file.
func LoadFile(path string, opts ...SystemOption) (*System, error) {
	sys, _, err := load(opts, func(fact func(string, []string) error) (*ast.Program, error) {
		return parser.ParseFileInto(path, fact)
	})
	return sys, err
}

// MustLoad is Load for programs known to be well formed; it panics on
// error.
func MustLoad(source string, opts ...SystemOption) *System {
	s, err := Load(source, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// OpenSystem loads the program source over a persistent disk store rooted
// at dir (created on first use): the store's facts, symbol table,
// statistics, and version counter are recovered from disk. When the source
// is byte-identical to the program last loaded over the store, and the
// store still holds every fact that load committed, the program's facts
// are not read at all: the store's program record supplies the rules and
// the predicates they must not define. Otherwise the program is loaded in
// full, its facts inserted idempotently — duplicates are no-ops that do
// not advance the version — and the record is rewritten at the next Close.
// Either way EDBVersion after a clean reopen equals the version at
// shutdown, so every result-cache key and statistics epoch derived from it
// remains valid, and the answers are the same. Facts added at runtime
// (AddFact, LoadData) persist across restarts and are read from the store
// like the program's own; Close the system to sync and release the store.
// A program that fails to load inserts no row and persists no symbol.
func OpenSystem(dir, source string, opts ...SystemOption) (*System, error) {
	start := time.Now()
	st, err := edb.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	opened := time.Now()
	hash := sha256.Sum256(unsafe.Slice(unsafe.StringData(source), len(source)))
	sys := fromRecord(st, hash)
	if sys == nil {
		if sys, err = replay(st, source, hash, opts); err != nil {
			st.Close()
			return nil, err
		}
	}
	sys.recovery.Open, sys.recovery.Load = opened.Sub(start), time.Since(opened)
	return sys, nil
}

// fromRecord builds the System from st's program record when the record
// describes the program whose source hashes to hash: the rules are parsed
// back from the record and validated against its fact predicates, and no
// fact is read. It returns nil when there is no usable record.
func fromRecord(st *edb.DiskStore, hash [sha256.Size]byte) *System {
	rec, ok := st.Program()
	if !ok || rec.Hash != hash {
		return nil
	}
	prog, err := parser.Parse(rec.Rules)
	if err != nil || len(prog.Facts) > 0 {
		return nil
	}
	facts := make(map[ast.PredKey]bool, len(rec.Facts))
	for _, k := range rec.Facts {
		facts[k] = true
	}
	if prog.ValidateRules(func(k ast.PredKey) bool { return facts[k] }, true) != nil {
		return nil
	}
	return &System{Program: prog, DB: edb.FromStorage(st)}
}

// replay loads the program in full over st and has the store record it:
// the stale record goes first, the new one is written once Close (or a
// Sync) has made the rows it vouches for durable.
func replay(st *edb.DiskStore, source string, hash [sha256.Size]byte, opts []SystemOption) (*System, error) {
	if err := st.SetProgram(nil); err != nil {
		return nil, err
	}
	sys, facts, err := load(append(opts, WithStorage(st)), func(fact func(string, []string) error) (*ast.Program, error) {
		return parser.ParseInto(source, fact)
	})
	if err != nil {
		return nil, err
	}
	rec := &edb.ProgramRecord{Hash: hash, Version: st.Version(), Facts: facts, Rules: sys.Program.String()}
	if err := st.SetProgram(rec); err != nil {
		return nil, err
	}
	sys.recovery.Replayed = true
	return sys, nil
}

// Recovery describes how OpenSystem brought a System up.
type Recovery struct {
	// Replayed reports whether the program's facts were read and
	// re-inserted; false means the store's program record vouched for them.
	Replayed bool
	// Open is the time spent recovering the store, Load the time spent
	// loading the program over it (a full replay, or the record's rules).
	Open, Load time.Duration
}

// Recovery reports how OpenSystem opened s; it is zero for a System built
// any other way.
func (s *System) Recovery() Recovery { return s.recovery }

// Close releases the system's storage backend: a no-op for in-memory
// systems, a sync-and-close for disk-backed ones (OpenSystem,
// WithStorage over edb.OpenDisk). The system must not be used afterwards.
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.DB.Close()
}

// LoadData bulk-loads delimited rows (tab- or comma-separated, '#'
// comments) from the named file as facts for pred, returning how many were
// new.
func (s *System) LoadData(pred, path string) (int, error) {
	s.mu.Lock()
	added, err := s.DB.LoadFile(pred, path)
	s.mu.Unlock()
	if added > 0 {
		s.notifyMutation()
	}
	return added, err
}

// AddFact inserts one ground fact pred(args...) given as strings, and
// reports whether it was new. Facts may be added between evaluations; the
// lock serializes AddFact against other mutation and index warming (but not
// against a running evaluation — see the System doc).
func (s *System) AddFact(pred string, args ...string) bool {
	s.mu.Lock()
	added := s.DB.Add(pred, args...)
	s.mu.Unlock()
	if added {
		s.notifyMutation()
	}
	return added
}

// validate checks prog's rules against the store: beyond Validate's rule
// conditions, no rule may define a predicate that has facts.
func (s *System) validate(prog *ast.Program) error {
	return prog.ValidateRules(s.DB.Has, true)
}

// EDBVersion returns a counter that increases whenever a new fact enters
// the System's database (AddFact, LoadData). Result caches key on it so
// cached answers are invalidated by any mutation: equal versions bracket a
// window in which every cached answer is still exact.
func (s *System) EDBVersion() uint64 {
	return s.DB.Version()
}

// config collects evaluation options.
type config struct {
	semiNaive    bool // WithEngine(SemiNaive)
	strategyName string
	stats        *trace.Stats
	ctx          context.Context
	profile      *trace.Profile
	edbDelay     time.Duration
	// reoptThreshold is the statistics-drift fraction for cached auto
	// plans: 0 means DefaultReoptThreshold, negative disables re-opt.
	reoptThreshold float64
}

// Option adjusts one evaluation.
type Option func(*config)

// newConfig applies opts: every entry point parses its options here.
func newConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// messagePassingOnly rejects WithEngine(SemiNaive), which only Eval
// honours, at the entry points that compile for the message-passing
// evaluator.
func (c *config) messagePassingOnly(entry string) error {
	if c.semiNaive {
		return fmt.Errorf("mpq: %s supports only the message-passing engine", entry)
	}
	return nil
}

// Engine selects an evaluator other than message passing.
//
// Deprecated: SemiNaive is its only value, kept because benchmark/ still
// checks its workload oracle against it; removed with ROADMAP item 1's
// [benchmark] PR. Tests and tools call internal/bottomup and internal/magic
// directly.
type Engine int

// SemiNaive is bottom-up semi-naive evaluation of the full minimum model.
//
// Deprecated: see Engine.
const SemiNaive Engine = 1

// WithEngine(SemiNaive) makes Eval evaluate bottom-up semi-naive instead of
// by message passing; Prepare, Query, QueryPrepared and Answers reject it.
//
// Deprecated: see Engine.
func WithEngine(e Engine) Option { return func(c *config) { c.semiNaive = e == SemiNaive } }

// WithStrategy selects the sideways information passing strategy by name:
// "greedy" (default, Definition 2.4), "qualtree" (Theorem 4.1 with greedy
// fallback), "leftright" (Prolog order), "basic" (no information passing
// at all — the §2.1 basic graph, for ablations), "stats" (§1.2's myopic
// EDB-statistics-driven ordering), or "auto" (adaptive: score every
// candidate strategy under the stats-backed cost model and evaluate
// through the cheapest — see AutoStrategy and doc/PLANNING.md).
func WithStrategy(name string) Option {
	return func(c *config) { c.strategyName = name }
}

// WithReoptThreshold sets the statistics-drift fraction past which a cached
// "auto" plan is re-optimized on its next plan-cache hit: with threshold t,
// re-planning triggers when (EDBVersion − plan's stats epoch) / stats epoch
// ≥ t (the denominator is floored so a near-empty database does not re-plan
// per insert). 0 selects DefaultReoptThreshold; a negative value disables
// drift re-optimization entirely. Manual strategies are unaffected.
func WithReoptThreshold(t float64) Option {
	return func(c *config) { c.reoptThreshold = t }
}

// WithStats directs the message engine's counters into the given
// accumulator (useful across repeated runs).
func WithStats(st *trace.Stats) Option { return func(c *config) { c.stats = st } }

// WithPartitions returns an option that changes nothing.
//
// Deprecated: ignored; evaluation is never sharded. Kept only because
// benchmark/ still references it; removed with ROADMAP item 1's [benchmark]
// PR.
func WithPartitions(int) Option { return func(*config) {} }

// WithEDBDelay charges every EDB-leaf retrieval a simulated latency
// (engine.Options.EDBDelay) — the E12/A7 methodology for modelling disk
// or remote-store access, which makes evaluations latency-bound rather
// than CPU-bound. Answers are unchanged. The setting keys the plan cache
// alongside strategy and shape.
func WithEDBDelay(d time.Duration) Option { return func(c *config) { c.edbDelay = d } }

// WithContext derives an evaluation's lifetime from ctx: when
// ctx is cancelled or its deadline expires, the engine aborts every node
// process and the evaluation returns an error satisfying errors.Is for both
// taxonomies — engine.ErrCancelled/engine.ErrDeadline and
// context.Canceled/context.DeadlineExceeded. Bound an evaluation in time
// with context.WithTimeout.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// evalContext returns the context governing one evaluation: WithContext's,
// or context.Background.
func (c *config) evalContext() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// engineOptions assembles the engine's option set for this configuration
// — every evaluation entry point builds its engine.Options here — binding
// the root's "d" positions to bind and wiring ctx in as the engine's cancel
// signal (the context's own timer enforces any deadline, so
// engine.Options.Deadline stays unset; a nil ctx never cancels).
func (c *config) engineOptions(ctx context.Context, bind []symtab.Sym) engine.Options {
	return engine.Options{Stats: c.stats, Profile: c.profile, EDBDelay: c.edbDelay,
		Cancel: ctxDone(ctx), Bind: bind}
}

// ctxDone returns the context's cancellation channel, tolerating nil (the
// prepared-query entry points accept a nil context as context.Background).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// engineError classifies an engine abort caused by the evaluation's
// context: the engine only sees a closed cancel channel (ErrCancelled), so
// when the context reports why, the error is rewritten to satisfy
// errors.Is for both the engine sentinel and the context sentinel.
func engineError(err error, ctx context.Context) error {
	if err == nil || ctx == nil || !errors.Is(err, engine.ErrCancelled) {
		return err
	}
	switch ctx.Err() {
	case context.DeadlineExceeded:
		return fmt.Errorf("%w (%w)", engine.ErrDeadline, context.DeadlineExceeded)
	case context.Canceled:
		return fmt.Errorf("%w (%w)", engine.ErrCancelled, context.Canceled)
	}
	return err
}

// WithProfile collects per-node execution counters into p (messages, rows,
// joins, and wall-time per rule/goal graph node, plus the termination-
// round timeline) and, when p.RecordSpans armed its ring, every handled
// message. Create p with trace.NewProfile, evaluate, then render
// p.Snapshot() with internal/trace/export: WriteReport (`mpq -profile`),
// WriteTraceText (`mpq -trace`) or WriteTraceEvents (`mpq -trace-out`).
// Eval, Answers and Query take it. Prepare ignores it,
// because a PreparedQuery is shared by concurrent evaluations and a
// Profile must not be.
func WithProfile(p *trace.Profile) Option { return func(c *config) { c.profile = p } }

// Answer is a completed evaluation.
type Answer struct {
	// Tuples holds the goal tuples as constant strings, sorted.
	Tuples [][]string
	// Stats holds the evaluation's counters.
	Stats trace.Snapshot
	// Reused reports whether Query served this evaluation from the plan
	// cache (always false for Eval and the first Query of a shape).
	Reused bool
}

// Eval evaluates the system's query. Each call compiles the program's
// query afresh; Prepare compiles once for repeated evaluation.
func (s *System) Eval(opts ...Option) (*Answer, error) {
	cfg := newConfig(opts)
	if cfg.semiNaive {
		return &Answer{Tuples: s.renderAll(bottomup.SemiNaive(s.Program, s.DB).Goal)}, nil
	}
	pq, err := s.compile(s.Program, nil, &cfg)
	if err != nil {
		return nil, err
	}
	return pq.evalWith(cfg.evalContext(), nil, &cfg)
}

// Answers evaluates the system's query and returns the goal tuples as a
// range-over-func iterator, in derivation order ("answer tuples come
// trickling in throughout the computation", §3.1 of the paper). Breaking
// out of the range cancels the evaluation cleanly, so an exists-style query
// is a plain loop-and-break. A non-nil error is yielded at most once, as
// the final pair, with a nil tuple:
//
//	for tuple, err := range sys.Answers() {
//	    if err != nil { ... }
//	    use(tuple)
//	    break // early exit is a plain break
//	}
func (s *System) Answers(opts ...Option) iter.Seq2[[]string, error] {
	return func(yield func([]string, error) bool) {
		cfg := newConfig(opts)
		if err := cfg.messagePassingOnly("Answers"); err != nil {
			yield(nil, err)
			return
		}
		pq, err := s.compile(s.Program, nil, &cfg)
		if err != nil {
			yield(nil, err)
			return
		}
		pq.stream(cfg.evalContext(), nil, &cfg, yield)
	}
}

// Graph compiles and returns the information-passing rule/goal graph for
// the system's query, for inspection (Text, DOT) or for driving the engine
// package directly (e.g. distributed evaluation with engine.RunSites).
func (s *System) Graph(opts ...Option) (*rgg.Graph, error) {
	cfg := newConfig(opts)
	pq, err := s.compile(s.Program, nil, &cfg)
	if err != nil {
		return nil, err
	}
	return pq.Graph(), nil
}

// renderer turns goal tuples into constant strings: the one row renderer of
// every evaluation path. Rows are cut from flat chunks of minChunkRows rows,
// doubling up to maxChunkRows, and each row is capped at its own width, so a
// caller's append to one row cannot write into the next. A chunk is never
// reused: every row is the caller's to keep. keep also collects rows for a
// caller that sorts them once at the end (sorted).
type renderer struct {
	syms *symtab.Table
	n    int        // columns per row: the answer columns, leading
	size int        // rows in the next chunk
	free []string   // the current chunk's unused tail
	rows [][]string // the rows keep collected
}

const minChunkRows, maxChunkRows = 8, 256

// renderer returns a renderer of the first n columns of goal tuples.
func (s *System) renderer(n int) *renderer {
	// free and rows start empty but non-nil: rows of no columns, and an
	// answer with no rows, are empty slices rather than nil.
	return &renderer{syms: s.DB.Syms, n: n, size: minChunkRows, free: []string{}, rows: [][]string{}}
}

// row renders t's first n columns.
func (r *renderer) row(t relation.Tuple) []string {
	n := r.n
	if len(r.free) < n {
		r.free = make([]string, r.size*n)
		r.size = min(2*r.size, maxChunkRows)
	}
	row := r.free[:n:n]
	r.free = r.free[n:]
	for i := range row {
		row[i] = r.syms.String(t[i])
	}
	return row
}

// keep renders t and collects the row; it is a yield that never declines.
func (r *renderer) keep(t relation.Tuple) bool {
	r.rows = append(r.rows, r.row(t))
	return true
}

// sorted returns the collected rows in sortTuples order.
func (r *renderer) sorted() [][]string {
	sortTuples(r.rows)
	return r.rows
}

// renderAll renders every tuple of rel in sortTuples order.
func (s *System) renderAll(rel *relation.Relation) [][]string {
	r := s.renderer(rel.Arity())
	for t := range rel.All() {
		r.keep(t)
	}
	return r.sorted()
}

// sortTuples orders rendered tuples lexicographically — the one answer
// order every evaluation path (Eval, Query, PreparedQuery.Eval,
// Subscription rounds) produces, so equivalence checks can compare byte for
// byte.
func sortTuples(out [][]string) {
	slices.SortFunc(out, compareTuples)
}

// compareTuples is slices.Compare for rendered tuples, comparing each
// column once.
func compareTuples(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// Has reports whether the answer contains the exact tuple.
func (a *Answer) Has(tuple ...string) bool {
	for _, t := range a.Tuples {
		if len(t) != len(tuple) {
			continue
		}
		eq := true
		for i := range t {
			if t[i] != tuple[i] {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}
