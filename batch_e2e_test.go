package mpq

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/workload"
)

// batchWorkloads are the end-to-end instances the packaged-delivery
// experiments run: the original E7/E11 instances (narrow wavefronts — a
// chain discovers one tuple at a time, so batches degenerate to singles),
// plus wide-wavefront instances of the same query families, where
// set-at-a-time delivery must move at least minDrop rows per frame.
var batchWorkloads = []struct {
	name    string
	minDrop float64 // required rows-as-messages/frames ratio; 1 = no requirement
	mk      func() *ast.Program
}{
	{"E7-chain", 1, func() *ast.Program {
		return workload.Program(workload.TCRules, workload.Chain("edge", 10))
	}},
	{"E11-p1", 1, func() *ast.Program {
		return workload.Program(workload.P1Rules, workload.P1Data(16, 0.7, rand.New(rand.NewSource(11))))
	}},
	{"E7-wide", 5, func() *ast.Program {
		return workload.Program(workload.TCRules, workload.Random("edge", 64, 512, rand.New(rand.NewSource(11))))
	}},
	{"E11-wide", 5, func() *ast.Program {
		return workload.Program(workload.TCRules, workload.Grid("edge", 12, 12))
	}},
}

// TestPackagedMessageDrop pins the packaged-delivery acceptance: the answer
// set must be byte-identical to semi-naive on every workload, and on the
// wide-wavefront instances the frames sent must be at least 5× fewer than
// the rows they carry (each row was one message before packaging became the
// only mode).
func TestPackagedMessageDrop(t *testing.T) {
	for _, w := range batchWorkloads {
		prog := w.mk()
		g, err := rgg.Build(prog, rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		db := edb.FromProgram(prog)
		res, err := engine.Run(g, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		render := func(r *relation.Relation) string {
			var b strings.Builder
			for _, row := range r.Sorted() {
				b.WriteString(row.String(db.Syms))
				b.WriteByte('\n')
			}
			return b.String()
		}
		got, want := render(res.Answers), render(bottomup.SemiNaive(prog, db).Goal)
		if got != want {
			t.Errorf("%s: answers differ from semi-naive", w.name)
		}
		if got == "" {
			t.Errorf("%s: no answers", w.name)
		}
		sn := res.Stats
		rows := sn.RowMessages()
		ratio := float64(rows) / float64(sn.Messages())
		t.Logf("%s: rows=%d frames=%d (%.1fx)", w.name, rows, sn.Messages(), ratio)
		if ratio < w.minDrop {
			t.Errorf("%s: %.2f rows per frame, want ≥%.0f (rows=%d frames=%d)",
				w.name, ratio, w.minDrop, rows, sn.Messages())
		}
	}
}
