// Command mpq evaluates Datalog queries with the message-passing engine or
// one of the baseline evaluators.
//
// Usage:
//
//	mpq [-engine message-passing|semi-naive|naive|magic-sets|brute-force]
//	    [-strategy greedy|qualtree|leftright] [-stats] [-graph]
//	    [-profile] [-trace-out events.json]
//	    [-data pred=file.csv]... [-i] [program.dl]
//
// Observability (message-passing engine; see doc/OBSERVABILITY.md):
// -profile prints a per-node report after evaluation — top nodes by
// messages, rows, joins, and wall-time, the termination-round timeline,
// and a per-site breakdown. -trace-out writes the evaluation's event log
// as Chrome trace_event JSON, loadable in chrome://tracing or Perfetto.
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
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"strings"

	"repro"
	"repro/internal/parser"
	"repro/internal/trace"
	"repro/internal/trace/export"
)

// dataFlags collects repeated -data pred=path flags.
type dataFlags []string

func (d *dataFlags) String() string     { return strings.Join(*d, ",") }
func (d *dataFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	engineName := flag.String("engine", "message-passing", "evaluation engine")
	strategy := flag.String("strategy", "greedy", "information passing strategy: greedy, qualtree, leftright, basic, stats, auto")
	stats := flag.Bool("stats", false, "print execution statistics")
	graph := flag.Bool("graph", false, "print the rule/goal graph before evaluating")
	interactive := flag.Bool("i", false, "interactive session")
	traceMsgs := flag.Bool("trace", false, "log every engine message to stderr")
	profile := flag.Bool("profile", false, "print a per-node profile report after evaluation (message-passing engine)")
	profileTop := flag.Int("profile-top", 5, "how many nodes each -profile top-K table shows")
	traceOut := flag.String("trace-out", "", "write the evaluation's event log as Chrome trace_event JSON to this file")
	traceCap := flag.Int("trace-events", 0, "event-log ring capacity for -trace-out (0 = default 65536; oldest events drop first)")
	timeout := flag.Duration("timeout", 0, "abort the evaluation after this wall-clock time (message-passing engine; 0 = none)")
	partitions := flag.Int("partitions", 0, "hash-partitioned worker shards per node process (message-passing engine; 0 or 1 = none: the evaluation runs on one goroutine)")
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
	eng, err := mpq.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	opts := []mpq.Option{mpq.WithEngine(eng), mpq.WithStrategy(*strategy)}
	if *traceMsgs {
		opts = append(opts, mpq.WithTrace(os.Stderr))
	}
	if *timeout > 0 {
		opts = append(opts, mpq.WithDeadline(*timeout))
	}
	if *partitions >= 2 {
		opts = append(opts, mpq.WithPartitions(*partitions))
	}
	obs := &observer{top: *profileTop, out: *traceOut}
	if *profile {
		obs.prof = trace.NewProfile()
		opts = append(opts, mpq.WithProfile(obs.prof))
	}
	if *traceOut != "" {
		obs.log = trace.NewEventLog(*traceCap)
		opts = append(opts, mpq.WithEventLog(obs.log))
	}

	if *interactive {
		repl(flag.Arg(0), data, opts, *stats, obs)
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
		if err := explainPlan(sys, eng, opts); err != nil {
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
	ans, err := sys.Eval(opts...)
	if err != nil {
		fatal(err)
	}
	printAnswer(ans)
	if *stats {
		printStats(ans, eng)
	}
	if err := obs.finish(); err != nil {
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

// observer holds the opt-in observability sinks (-profile, -trace-out) and
// renders them after an evaluation. Each evaluation re-initializes the
// sinks, so in the REPL the report and trace file cover the latest query.
type observer struct {
	prof *trace.Profile
	log  *trace.EventLog
	out  string // -trace-out path
	top  int
}

func (o *observer) finish() error {
	if o.prof != nil {
		fmt.Fprintln(os.Stderr)
		if err := export.WriteReport(os.Stderr, o.prof.Snapshot(), o.top); err != nil {
			return err
		}
	}
	if o.log != nil {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := export.WriteTraceEvents(f, o.log); err != nil {
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

func printStats(ans *mpq.Answer, eng mpq.Engine) {
	if eng == mpq.MessagePassing {
		fmt.Fprintf(os.Stderr, "%s\n", ans.Stats)
	} else {
		fmt.Fprintf(os.Stderr, "iterations=%d derived=%d model=%d joins=%d\n",
			ans.Counts.Iterations, ans.Counts.Derived, ans.Counts.ModelSize, ans.Counts.Joins)
	}
}

// explainPlan is `mpq -explain plan`: print the compiled plan — chosen
// strategy (with the auto planner's candidate scoreboard), each rule's
// SIP evaluation order, and per-step size estimates — then evaluate and
// report estimated vs. observed cost. "Observed" is rows processed: the
// engine's tuple-traffic counters for message passing, candidate tuples
// examined plus derivations for the bottom-up engines.
func explainPlan(sys *mpq.System, eng mpq.Engine, opts []mpq.Option) error {
	text, est, err := sys.ExplainPlan(opts...)
	if err != nil {
		return err
	}
	fmt.Print(text)
	ans, err := sys.Eval(opts...)
	if err != nil {
		return err
	}
	var observed int64
	if eng == mpq.MessagePassing {
		observed = ans.Stats.TupReqRows + ans.Stats.TupleRows + ans.Stats.EDBTuples
	} else {
		observed = ans.Counts.Work()
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
func repl(programPath string, data dataFlags, opts []mpq.Option, stats bool, obs *observer) {
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
			evalQuery(clauses, clause, data, opts, stats, obs)
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

func evalQuery(clauses []string, query string, data dataFlags, opts []mpq.Option, stats bool, obs *observer) {
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
	ans, err := sys.Eval(opts...)
	if err != nil {
		fmt.Println(err)
		return
	}
	printAnswer(ans)
	if stats {
		printStats(ans, mpq.MessagePassing)
	}
	if err := obs.finish(); err != nil {
		fmt.Println(err)
	}
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
	proof, ok := sys.Explain(f.Pred, args...)
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
