// Supply chain risk: a Syllog-style knowledge system (the paper's related
// work cites Walker's Syllog, a rule-based data management system) over
// bulk-loaded data files. Rules classify transitive supplier dependencies
// and regional exposure; the data arrives as CSV, not as source text.
//
// Also demonstrated: answer streaming with early cancellation — an
// exists-style check stops the evaluation at the first witness, which only
// a demand-driven engine can do (bottom-up must finish the fixpoint).
//
//	go run ./examples/supplychain
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/trace"
)

// base holds the knowledge rules; queries are appended per question.
const base = `
	% supplies(Supplier, Part), uses(Product, Part), located(Supplier,
	% Region): loaded from CSV files.

	% A part belongs to a product directly or through sub-assemblies.
	part_of(P, Q) :- uses(Q, P).
	part_of(P, Q) :- part_of(P, M), part_of(M, Q).

	needs(Product, Part) :- uses(Product, Part).
	needs(Product, Part) :- part_of(Part, Mid), uses(Product, Mid).

	depends_on(Product, S) :- needs(Product, P), supplies(S, P).

	% A product is exposed to a region through any supplier located there.
	exposed(Product, Region) :- depends_on(Product, S), located(S, Region).
`

func main() {
	dir, err := os.MkdirTemp("", "supplychain")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	write(dir, "supplies.csv", `
# supplier,part
acme,gear
acme,axle
bolt_co,bolt
bolt_co,nut
gearbox_inc,gearbox
spring_gmbh,spring
chips_ltd,controller
`)
	write(dir, "uses.csv", `
# product,part
widget,gearbox
widget,case
gadget,controller
gadget,case
gearbox,gear
gearbox,axle
gearbox,bolt
case,bolt
case,spring
`)
	write(dir, "located.csv", `
acme,east
bolt_co,east
gearbox_inc,west
spring_gmbh,north
chips_ltd,south
`)

	// Question 1: which suppliers does the widget depend on, transitively?
	deps := load(dir, base+`goal(S) :- depends_on(widget, S).`)
	ans, err := deps.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsuppliers the widget depends on (transitively):")
	for _, t := range ans.Tuples {
		fmt.Printf("  %s\n", t[0])
	}

	// Question 2: which regions is each product exposed to?
	regions := load(dir, base+`goal(P, R) :- exposed(P, R).`)
	ans2, err := regions.Eval()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nregional exposure:")
	for _, t := range ans2.Tuples {
		fmt.Printf("  %-8s → %s\n", t[0], t[1])
	}

	// Question 3 (exists-check with early cancellation): is the widget
	// exposed to the east region at all? Stop at the first witness.
	probe := load(dir, base+`goal :- exposed(widget, east).`)
	found := false
	st := &trace.Stats{}
	for _, err := range probe.Answers(mpq.WithStats(st)) {
		if err != nil {
			log.Fatal(err)
		}
		found = true
		break // first witness is enough
	}
	fmt.Printf("\nwidget exposed to east region: %v (stopped after %d messages)\n",
		found, st.Snapshot().Messages())
}

// load parses the program and attaches the three CSV relations.
func load(dir, src string) *mpq.System {
	sys, err := mpq.Load(src)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range []struct{ pred, file string }{
		{"supplies", "supplies.csv"}, {"uses", "uses.csv"}, {"located", "located.csv"},
	} {
		if _, err := sys.LoadData(f.pred, filepath.Join(dir, f.file)); err != nil {
			log.Fatal(err)
		}
	}
	return sys
}

func write(dir, name, content string) {
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
}
