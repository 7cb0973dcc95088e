// Bill of materials: nonlinear recursion on a parts hierarchy — the
// divide-and-conquer workload the paper calls out ("nonlinear recursion
// frequently arises in divide-and-conquer algorithms", §1.2). The contains
// relation uses the doubly recursive rule contains(X,Y) ← contains(X,U),
// contains(U,Y), which a linear-recursion-only system (e.g. Henschen &
// Naqvi's, per §1.1) cannot evaluate.
//
// The example also quantifies the §1.2 relevance claim: a point query about
// one assembly ("what goes into a bike?") must not pay for the rest of the
// catalog.
//
//	go run ./examples/billofmaterials
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/bottomup"
)

const catalog = `
	% part(Assembly, Component)
	part(bike, frame).      part(bike, wheel_f).   part(bike, wheel_r).
	part(bike, drivetrain). part(wheel_f, rim).    part(wheel_f, hub).
	part(wheel_r, rim).     part(wheel_r, hub).    part(wheel_r, cassette).
	part(drivetrain, crank).part(drivetrain, chain).
	part(crank, bearing).   part(hub, bearing).    part(hub, axle).
	part(frame, tube_set).  part(tube_set, steel).

	% a second, unrelated product line
	part(boat, hull).       part(boat, mast).      part(boat, sail_set).
	part(hull, plank).      part(plank, oak).      part(mast, spruce).
	part(sail_set, canvas). part(sail_set, rope).  part(rope, hemp).

	% nonlinear transitive closure: divide and conquer
	contains(X, Y) :- part(X, Y).
	contains(X, Y) :- contains(X, U), contains(U, Y).
`

func main() {
	bike := must(mpq.Load(catalog + `goal(P) :- contains(bike, P).`))
	ans, err := bike.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("everything that goes into a bike:")
	for _, t := range ans.Tuples {
		fmt.Printf("  %s\n", t[0])
	}

	// Restriction check: the full minimum model also contains the boat's
	// closure; the point query must not compute it.
	full := bottomup.SemiNaive(bike.Program, bike.DB)
	fmt.Printf("\nfull contains-closure: %d tuples; the bike query needed %d answers and read %d EDB tuples\n",
		full.ModelSize, len(ans.Tuples), ans.Stats.EDBTuples)

	// Boolean query: is there any steel in a boat? (no)
	steelBoat := must(mpq.Load(catalog + `goal :- contains(boat, steel).`))
	yn, err := steelBoat.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steel in a boat: %v\n", len(yn.Tuples) == 1)

	// And hemp? (yes, via sail_set → rope)
	hempBoat := must(mpq.Load(catalog + `goal :- contains(boat, hemp).`))
	yn2, err := hempBoat.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hemp in a boat:  %v\n", len(yn2.Tuples) == 1)

	// Which assemblies use bearings anywhere below them? Second argument
	// bound — the fd adornment, flowing information the other way.
	users := must(mpq.Load(catalog + `goal(A) :- contains(A, bearing).`))
	ans3, err := users.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assemblies containing bearings:")
	for _, t := range ans3.Tuples {
		fmt.Printf("  %s\n", t[0])
	}
}

func must(s *mpq.System, err error) *mpq.System {
	if err != nil {
		log.Fatal(err)
	}
	return s
}
