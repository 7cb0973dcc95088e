// Genealogy: the classic deductive-database workload — ancestor and
// same-generation queries over a family tree, with the rule/goal graph
// printed so the adornments and cycle edges of §2 are visible.
//
// The same-generation rule is the standard stress test for sideways
// information passing: its recursive rule walks *up* the tree from the
// query individual, across via the recursive call, and back *down* —
// exactly the "d" binding flow of Example 2.1.
//
//	go run ./examples/genealogy
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/bottomup"
)

const family = `
	% par(Child, Parent)
	par(alice, carol).   par(alice, david).
	par(bob, carol).     par(bob, david).
	par(carol, erika).   par(carol, frank).
	par(david, gina).    par(david, henry).
	par(ivan, erika).    par(ivan, frank).
	par(judy, gina).
	par(kate, ivan).     par(leo, judy).
	par(mia, kate).
`

func main() {
	// Query 1: all ancestors of mia (linear recursion, first argument
	// bound).
	anc := mustLoad(family + `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- anc(X, U), par(U, Y).
		goal(A) :- anc(mia, A).
	`)
	ans, err := anc.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ancestors of mia:", flatten(ans.Tuples))

	// Query 2: everyone in the same generation as alice. The recursive
	// rule binds X downward through par, recurses, and returns through the
	// second par subgoal.
	sg := mustLoad(family + `
		sg(X, Y) :- par(X, P), par(Y, P).
		sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
		goal(P) :- sg(alice, P).
	`)
	g, err := sg.Graph()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrule/goal graph for the same-generation query:")
	fmt.Print(g.Text())

	ans2, err := sg.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same generation as alice:", flatten(ans2.Tuples))
	fmt.Printf("engine: %d messages, %d protocol messages, %d rounds\n",
		ans2.Stats.Messages(), ans2.Stats.Protocol, ans2.Stats.Rounds)

	// Query 3: cousins — same generation but different parents. Extra
	// nonrecursive structure on top of the recursive predicate.
	cousins := mustLoad(family + `
		sg(X, Y) :- par(X, P), par(Y, P).
		sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
		cousin(X, Y) :- par(X, XP), par(Y, YP), sg(XP, YP).
		goal(C) :- cousin(alice, C).
	`)
	ans3, err := cousins.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncousins of alice (incl. siblings via shared grandparents):", flatten(ans3.Tuples))

	// Why is kate in alice's generation? The Syllog-style explanation
	// facility prints a proof tree grounded in the par facts.
	if proof, ok := bottomup.NewExplainer(sg.Program, sg.DB).Explain("sg", "alice", "kate"); ok {
		fmt.Println("\nwhy sg(alice, kate):")
		fmt.Print(proof)
	}
}

func mustLoad(src string) *mpq.System {
	sys, err := mpq.Load(src)
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

func flatten(tuples [][]string) string {
	var names []string
	for _, t := range tuples {
		names = append(names, t[0])
	}
	return strings.Join(names, ", ")
}
