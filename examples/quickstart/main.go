// Quickstart: load a Datalog program, evaluate its query with the
// message-passing engine, and inspect the execution statistics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/bottomup"
)

func main() {
	// A program is facts (the EDB), rules (the IDB), and a query for the
	// distinguished predicate "goal" — here: which cities can be reached
	// from vienna by direct or connecting trains?
	sys, err := mpq.Load(`
		train(vienna, prague).
		train(prague, berlin).
		train(berlin, hamburg).
		train(vienna, budapest).
		train(budapest, bucharest).
		train(paris, lyon).        % not reachable from vienna

		reach(X, Y) :- train(X, Y).
		reach(X, Y) :- reach(X, U), train(U, Y).

		goal(City) :- reach(vienna, City).
	`)
	if err != nil {
		log.Fatal(err)
	}

	ans, err := sys.Eval() // message-passing engine, greedy strategy
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reachable from vienna:")
	for _, tuple := range ans.Tuples {
		fmt.Printf("  %s\n", tuple[0])
	}

	// The engine evaluated the query as a network of processes exchanging
	// messages; the "d" restriction kept paris and lyon out of the
	// computation entirely — their train tuples were never even read.
	fmt.Printf("\nmessages: %d  tuples stored: %d  duplicates dropped: %d  EDB tuples read: %d\n",
		ans.Stats.Messages(), ans.Stats.Stored, ans.Stats.Dups, ans.Stats.EDBTuples)

	// The same query through the bottom-up baseline computes the full
	// minimum model, paris included.
	full := bottomup.SemiNaive(sys.Program, sys.DB)
	fmt.Printf("semi-naive computes the full reach closure: %d tuples for %d answers\n",
		full.ModelSize, len(ans.Tuples))
}
