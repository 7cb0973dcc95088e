// Command mpq evaluates Datalog queries with the message-passing engine or
// one of the §1.1 baseline evaluators that the reproduction tests it
// against (internal/bottomup, internal/magic).
//
// Usage:
//
//	mpq [-engine message-passing|semi-naive|naive|magic-sets|brute-force]
//	    [-strategy greedy|qualtree|leftright|basic|stats|auto] [-stats] [-graph]
//	    [-profile] [-trace] [-trace-out events.json] [-trace-events N]
//	    [-data pred=file.csv]... [-i] [program.dl]
//
// -strategy picks the sideways information passing of the message-passing
// engine and of the magic-sets rewrite; the other baselines ignore it.
// "auto" scores message-passing graphs, so it is a usage error with any
// other engine.
//
// Observability (message-passing engine; see doc/OBSERVABILITY.md): all
// three flags arm one profile and render it after the evaluation, also
// when the evaluation fails or times out. -profile prints a per-node
// report — top nodes by messages, rows, joins, and wall-time, the
// termination-round timeline, and a per-site breakdown. -trace prints
// every handled message to stderr, one line each (time, receiver ←
// sender, kind, rows), with the termination rounds on lines of their own;
// it reads the profile's bounded span ring, so on a long run only the
// newest -trace-events messages are shown. -trace-out writes the same
// spans as Chrome trace_event JSON, loadable in chrome://tracing or
// Perfetto.
//
// The program file contains facts, rules, and at least one query — either
// rules for the distinguished predicate goal, or `?- body.` sugar:
//
//	edge(a, b). edge(b, c).
//	path(X, Y) :- edge(X, Y).
//	path(X, Y) :- path(X, U), edge(U, Y).
//	?- path(a, Y).
//
// -data loads tab- or comma-separated rows as extra facts for a predicate.
// With -i, mpq reads clauses interactively after loading the program (if
// any); each `?- body.` query evaluates immediately.
//
// With -connect ADDR, mpq is instead a client for a long-lived
// `mpqd -serve` instance: each argument (or stdin line) is sent as one
// query and the streamed answers are printed as in local evaluation:
//
//	mpq -connect :7700 '?- path(a, Y).'
//
// A `fact edge(a, b).` argument (or stdin line) adds a ground fact to the
// server's EDB instead of querying — the writer half of a subscription.
//
// Adding -subscribe turns the single query into a live view (see
// doc/SUBSCRIPTIONS.md): the current answers print immediately, then mpq
// stays connected and prints each answer the moment a server-side
// AddFact/LoadData mutation makes it derivable, until interrupted:
//
//	mpq -connect :7700 -subscribe '?- path(a, Y).'
//
// With -stats, each round's "~ <n> v=<version>" frame is echoed to
// stderr.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/trace"
	"repro/internal/trace/export"
)

// dataFlags collects repeated -data pred=path flags.
type dataFlags []string

func (d *dataFlags) String() string     { return strings.Join(*d, ",") }
func (d *dataFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	engineName := flag.String("engine", "message-passing", "evaluation engine: message-passing, or a bottom-up oracle: semi-naive, naive, magic-sets, brute-force")
	strategy := flag.String("strategy", "greedy", "information passing strategy: greedy, qualtree, leftright, basic, stats, auto")
	stats := flag.Bool("stats", false, "print execution statistics")
	graph := flag.Bool("graph", false, "print the rule/goal graph before evaluating")
	interactive := flag.Bool("i", false, "interactive session")
	traceMsgs := flag.Bool("trace", false, "after evaluation, print every handled message and termination round to stderr (message-passing engine)")
	profile := flag.Bool("profile", false, "print a per-node profile report after evaluation (message-passing engine)")
	profileTop := flag.Int("profile-top", 5, "how many nodes each -profile top-K table shows")
	traceOut := flag.String("trace-out", "", "write the evaluation's handled-message spans as Chrome trace_event JSON to this file")
	traceCap := flag.Int("trace-events", 0, "span ring capacity for -trace and -trace-out (0 = default 65536; oldest messages drop first)")
	timeout := flag.Duration("timeout", 0, "abort the evaluation after this wall-clock time (message-passing engine; 0 = none)")
	explain := flag.String("explain", "", "'plan' prints the compiled plan (chosen strategy, SIP orders, estimated vs. observed cost); a ground fact like 'path(a,d)' prints its proof tree instead of evaluating")
	connect := flag.String("connect", "", "client mode: send queries to an `mpqd -serve` address instead of evaluating locally")
	tenant := flag.String("tenant", "", "-connect: admission tenant name for fair queueing and quotas (default tenant when empty)")
	subscribe := flag.Bool("subscribe", false, "-connect: subscribe to one query and stream new answers as the server's EDB grows")
	var data dataFlags
	flag.Var(&data, "data", "load pred=file.csv facts (repeatable)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mpq [flags] [program.dl]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *connect != "" {
		var err error
		if *subscribe {
			err = runSubscribe(*connect, *tenant, flag.Args(), *stats)
		} else {
			err = runClient(*connect, *tenant, flag.Args(), *stats)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *subscribe {
		fatal(fmt.Errorf("-subscribe needs -connect (subscriptions live on an mpqd -serve instance)"))
	}
	ev := &evaluator{strategy: *strategy, timeout: *timeout,
		opts: []mpq.Option{mpq.WithStrategy(*strategy)}}
	if *engineName != "message-passing" {
		var ok bool
		if ev.oracle, ok = oracles[*engineName]; !ok {
			fatal(fmt.Errorf("unknown engine %q (try message-passing, semi-naive, naive, magic-sets, brute-force)", *engineName))
		}
		if *strategy == mpq.AutoStrategy {
			fmt.Fprintf(os.Stderr, "mpq: -strategy %s scores message-passing plans; -engine %s takes a manual strategy\n",
				*strategy, *engineName)
			flag.Usage()
			os.Exit(2)
		}
	}
	obs := &observer{report: *profile, text: *traceMsgs, out: *traceOut, top: *profileTop}
	if *profile || *traceMsgs || *traceOut != "" {
		obs.prof = trace.NewProfile()
		if *traceMsgs || *traceOut != "" {
			obs.prof.RecordSpans(*traceCap)
		}
		ev.opts = append(ev.opts, mpq.WithProfile(obs.prof))
	}

	if *interactive {
		repl(flag.Arg(0), data, ev, *stats, obs)
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	sys, err := mpq.LoadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if err := loadData(sys, data); err != nil {
		fatal(err)
	}
	if *graph {
		g, err := sys.Graph(mpq.WithStrategy(*strategy))
		if err != nil {
			fatal(err)
		}
		fmt.Println(g.Text())
	}
	if *explain == "plan" {
		if err := explainPlan(sys, ev); err != nil {
			fatal(err)
		}
		return
	}
	if *explain != "" {
		if err := printProof(sys, *explain); err != nil {
			fatal(err)
		}
		return
	}
	ans, counts, err := ev.eval(sys)
	if err == nil {
		printAnswer(ans)
		if *stats {
			printStats(ans, counts)
		}
	}
	// A failed or timed-out evaluation renders too, before the non-zero
	// exit: its trace is the one most wanted.
	if err = errors.Join(err, obs.finish()); err != nil {
		fatal(err)
	}
}

// runClient is `mpq -connect ADDR`: it sends each argument as one query to
// an `mpqd -serve` instance over the line protocol (doc/PROTOCOL.md) and
// renders the streamed answers exactly like a local evaluation. With no
// arguments, queries are read from stdin, one per line. A nonempty tenant
// is announced first with a "tenant NAME" line, placing the connection's
// queries under that tenant's admission quota and queue.
func runClient(addr, tenant string, queries []string, stats bool) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if tenant != "" {
		if _, err := fmt.Fprintf(conn, "tenant %s\n", tenant); err != nil {
			return err
		}
	}
	resp := bufio.NewScanner(conn)
	resp.Buffer(make([]byte, 0, 64*1024), 1<<20)

	ask := func(q string) error {
		if _, err := fmt.Fprintf(conn, "%s\n", strings.ReplaceAll(q, "\n", " ")); err != nil {
			return err
		}
		n := 0
		for resp.Scan() {
			line := resp.Text()
			switch {
			case line == "T":
				fmt.Println("yes")
				n++
			case strings.HasPrefix(line, "T "):
				fmt.Println(strings.TrimPrefix(line, "T "))
				n++
			case strings.HasPrefix(line, ". "):
				if n == 0 {
					fmt.Println("no")
				}
				if stats {
					fmt.Fprintf(os.Stderr, "%s\n", strings.TrimPrefix(line, ". "))
				}
				return nil
			case strings.HasPrefix(line, "+ "):
				// Reply to a "fact <atom>." line: was the fact new?
				if strings.HasPrefix(line, "+ 1") {
					fmt.Println("added")
				} else {
					fmt.Println("duplicate")
				}
				if stats {
					fmt.Fprintf(os.Stderr, "%s\n", strings.TrimPrefix(line, "+ "))
				}
				return nil
			case strings.HasPrefix(line, "E "):
				return fmt.Errorf("server: %s", strings.TrimPrefix(line, "E "))
			default:
				return fmt.Errorf("malformed server line %q", line)
			}
		}
		if err := resp.Err(); err != nil {
			return err
		}
		return fmt.Errorf("connection closed mid-response")
	}

	if len(queries) == 0 {
		in := bufio.NewScanner(os.Stdin)
		for in.Scan() {
			q := strings.TrimSpace(in.Text())
			if q == "" {
				continue
			}
			if err := ask(q); err != nil {
				return err
			}
		}
		return in.Err()
	}
	for _, q := range queries {
		if err := ask(q); err != nil {
			return err
		}
	}
	return nil
}

// runSubscribe is `mpq -connect ADDR -subscribe QUERY`: it opens a live
// view over one query (doc/SUBSCRIPTIONS.md) and prints every answer as
// it becomes derivable — the full current set first, then each delta —
// until the connection ends (server shutdown, or the user interrupting
// mpq). Round frames go to stderr with -stats. Output is unbuffered by
// round: each tuple prints the moment its T line arrives, so the stream
// can feed a pipeline.
func runSubscribe(addr, tenant string, queries []string, stats bool) error {
	if len(queries) != 1 {
		return fmt.Errorf("-subscribe wants exactly one query, got %d", len(queries))
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if tenant != "" {
		if _, err := fmt.Fprintf(conn, "tenant %s\n", tenant); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(conn, "subscribe %s\n", strings.ReplaceAll(queries[0], "\n", " ")); err != nil {
		return err
	}
	resp := bufio.NewScanner(conn)
	resp.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for resp.Scan() {
		line := resp.Text()
		switch {
		case line == "T":
			fmt.Println("yes")
		case strings.HasPrefix(line, "T "):
			fmt.Println(strings.TrimPrefix(line, "T "))
		case strings.HasPrefix(line, "~ "):
			if stats {
				fmt.Fprintf(os.Stderr, "%s\n", strings.TrimPrefix(line, "~ "))
			}
		case strings.HasPrefix(line, "E "):
			return fmt.Errorf("server: %s", strings.TrimPrefix(line, "E "))
		default:
			return fmt.Errorf("malformed server line %q", line)
		}
	}
	return resp.Err() // EOF: server closed the subscription
}

// observer holds the opt-in profile (armed by -profile, -trace or
// -trace-out) and renders it after an evaluation. Each evaluation
// re-initializes the profile, so in the REPL the output covers the latest
// query.
type observer struct {
	prof   *trace.Profile
	report bool   // -profile
	text   bool   // -trace
	out    string // -trace-out path
	top    int
}

func (o *observer) finish() error {
	if o.prof == nil || o.prof.Size() == 0 {
		return nil // nothing armed, or no message-passing evaluation ran
	}
	ps := o.prof.Snapshot()
	if o.text {
		if err := export.WriteTraceText(os.Stderr, ps); err != nil {
			return err
		}
	}
	if o.report {
		fmt.Fprintln(os.Stderr)
		if err := export.WriteReport(os.Stderr, ps, o.top); err != nil {
			return err
		}
	}
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := export.WriteTraceEvents(f, ps); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", o.out)
	}
	return nil
}

func loadData(sys *mpq.System, data dataFlags) error {
	for _, spec := range data {
		pred, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -data %q, want pred=path", spec)
		}
		n, err := sys.LoadData(pred, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %d %s facts from %s\n", n, pred, path)
	}
	return nil
}

func printAnswer(ans *mpq.Answer) {
	if len(ans.Tuples) == 0 {
		fmt.Println("no")
		return
	}
	for _, t := range ans.Tuples {
		if len(t) == 0 {
			fmt.Println("yes")
			continue
		}
		fmt.Println(strings.Join(t, "\t"))
	}
}

// printStats prints the message-passing counters, or an oracle's counts
// when it has them.
func printStats(ans *mpq.Answer, counts *bottomup.Counts) {
	if counts == nil {
		fmt.Fprintf(os.Stderr, "%s\n", ans.Stats)
	} else {
		fmt.Fprintf(os.Stderr, "iterations=%d derived=%d model=%d joins=%d\n",
			counts.Iterations, counts.Derived, counts.ModelSize, counts.Joins)
	}
}

// explainPlan is `mpq -explain plan`: print the compiled plan — chosen
// strategy (with the auto planner's candidate scoreboard), each rule's
// SIP evaluation order, and per-step size estimates — then evaluate and
// report estimated vs. observed cost. "Observed" is rows processed: the
// engine's tuple-traffic counters for message passing, candidate tuples
// examined plus derivations for the bottom-up engines.
func explainPlan(sys *mpq.System, ev *evaluator) error {
	text, est, err := sys.ExplainPlan(ev.opts...)
	if err != nil {
		return err
	}
	fmt.Print(text)
	ans, counts, err := ev.eval(sys)
	if err != nil {
		return err
	}
	observed := ans.Stats.TupReqRows + ans.Stats.TupleRows + ans.Stats.EDBTuples
	if counts != nil {
		observed = counts.Work()
	}
	obsLog := math.Inf(-1)
	if observed > 0 {
		obsLog = math.Log10(float64(observed))
	}
	fmt.Printf("cost: estimated ~10^%.2f rows, observed %d rows processed (~10^%.2f)\n", est, observed, obsLog)
	return nil
}

// repl reads clauses from stdin. Facts and rules accumulate; `?- body.`
// evaluates immediately against everything accumulated so far. A starting
// program file (optional) seeds the session.
func repl(programPath string, data dataFlags, ev *evaluator, stats bool, obs *observer) {
	var clauses []string
	if programPath != "" {
		src, err := os.ReadFile(programPath)
		if err != nil {
			fatal(err)
		}
		clauses = append(clauses, string(src))
	}
	fmt.Println("mpq interactive — enter facts/rules ending with '.', queries as '?- body.'; \\why fact(args). explains, \\list shows clauses, \\q quits")
	sc := bufio.NewScanner(os.Stdin)
	var partial string
	for {
		if partial == "" {
			fmt.Print("mpq> ")
		} else {
			fmt.Print("...> ")
		}
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "":
			continue
		case `\q`, `\quit`:
			return
		case `\list`:
			fmt.Print(strings.Join(clauses, "\n"))
			fmt.Println()
			continue
		}
		if fact, ok := strings.CutPrefix(line, `\why `); ok {
			src := strings.Join(clauses, "\n") + "\n?- probe_(Z__)."
			sys, err := mpq.Load(src)
			if err != nil {
				fmt.Println(err)
				continue
			}
			if err := loadData(sys, data); err != nil {
				fmt.Println(err)
				continue
			}
			if err := printProof(sys, strings.TrimSuffix(strings.TrimSpace(fact), ".")); err != nil {
				fmt.Println(err)
			}
			continue
		}
		partial += line + "\n"
		if !strings.HasSuffix(line, ".") {
			continue // clause continues on the next line
		}
		clause := partial
		partial = ""
		if strings.HasPrefix(strings.TrimSpace(clause), "?-") {
			evalQuery(clauses, clause, data, ev, stats, obs)
			continue
		}
		// Check the clause stands on its own (syntax, safety) before
		// keeping it; cross-clause conditions are re-checked per query.
		if _, err := mpq.Load(clause + "\n?- probe_(Z)."); err != nil {
			fmt.Println(err)
			continue
		}
		clauses = append(clauses, clause)
	}
}

func evalQuery(clauses []string, query string, data dataFlags, ev *evaluator, stats bool, obs *observer) {
	src := strings.Join(clauses, "\n") + "\n" + query
	sys, err := mpq.Load(src)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := loadData(sys, data); err != nil {
		fmt.Println(err)
		return
	}
	ans, counts, err := ev.eval(sys)
	if err == nil {
		printAnswer(ans)
		if stats {
			printStats(ans, counts)
		}
	}
	if err = errors.Join(err, obs.finish()); err != nil {
		fmt.Println(err)
	}
}

// oracle is one of the §1.1 baselines: it evaluates sys's query bottom-up
// and returns the result with the database whose symbols its rows use.
type oracle func(sys *mpq.System, strategy string) (*bottomup.Result, *edb.Database, error)

// oracles are the -engine values other than message-passing.
var oracles = map[string]oracle{
	"semi-naive":  bottomUp(bottomup.SemiNaive),
	"naive":       bottomUp(bottomup.Naive),
	"brute-force": bottomUp(bottomup.BruteForce),
	"magic-sets": func(sys *mpq.System, strategy string) (*bottomup.Result, *edb.Database, error) {
		s := rgg.StrategyNamed(strategy)
		if s.Name == "basic" { // an all-free rewrite is not what "basic" ablates: keep the rewrite's greedy
			s = rgg.StrategyNamed("")
		}
		res, _, db, err := magic.EvaluateWith(sys.Program, sys.DB, s.Make(sys.DB, nil))
		return res, db, err
	},
}

// bottomUp makes an oracle of a bottom-up evaluation over sys's own store.
func bottomUp(eval func(*ast.Program, *edb.Database) *bottomup.Result) oracle {
	return func(sys *mpq.System, _ string) (*bottomup.Result, *edb.Database, error) {
		return eval(sys.Program, sys.DB), sys.DB, nil
	}
}

// evaluator is what -engine, -strategy and -timeout make of one evaluation.
type evaluator struct {
	oracle   oracle // nil: message passing
	strategy string
	opts     []mpq.Option // message passing's
	timeout  time.Duration
}

// eval evaluates sys's query: by message passing, aborted after the
// timeout when it is positive, or by the oracle, whose counts it returns.
func (ev *evaluator) eval(sys *mpq.System) (*mpq.Answer, *bottomup.Counts, error) {
	if ev.oracle != nil {
		res, db, err := ev.oracle(sys, ev.strategy)
		if err != nil {
			return nil, nil, err
		}
		return &mpq.Answer{Tuples: render(res.Goal, db)}, &res.Counts, nil
	}
	opts := ev.opts
	if ev.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), ev.timeout)
		defer cancel()
		opts = append(opts[:len(opts):len(opts)], mpq.WithContext(ctx))
	}
	ans, err := sys.Eval(opts...)
	return ans, nil, err
}

// render turns r's rows into constant strings through db's symbols, sorted
// like mpq.Answer's.
func render(r *relation.Relation, db *edb.Database) [][]string {
	out := make([][]string, 0, r.Len())
	for t := range r.All() {
		row := make([]string, len(t))
		for i, sym := range t {
			row[i] = db.Syms.String(sym)
		}
		out = append(out, row)
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// printProof parses "pred(c1,c2,...)" and prints why it holds.
func printProof(sys *mpq.System, factSrc string) error {
	prog, err := parser.Parse(factSrc + ".")
	if err != nil {
		return err
	}
	if len(prog.Facts) != 1 {
		return fmt.Errorf("-explain wants one ground fact, got %q", factSrc)
	}
	f := prog.Facts[0]
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.Const
	}
	proof, ok := bottomup.NewExplainer(sys.Program, sys.DB).Explain(f.Pred, args...)
	if !ok {
		fmt.Printf("%s does not hold\n", f)
		return nil
	}
	fmt.Print(proof)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpq:", err)
	os.Exit(1)
}
