// EDB statistics: per-relation cardinalities and per-column distinct-count
// sketches, maintained incrementally on every successful insert (AddFact,
// Add, LoadRows all funnel through record). Planners read a consistent
// Stats snapshot and never touch the relations themselves — unlike
// relation.Distinct, which lazily builds an index and therefore mutates
// shared state, the sketches here live behind the database's own lock and
// are safe to read while a concurrent bulk load is running.
package edb

import (
	"math"

	"repro/internal/ast"
	"repro/internal/relation"
)

// sketchRegisters is the register count m of each per-column
// hyperloglog-style sketch. 64 registers keep the error near
// 1.04/sqrt(64) ≈ 13% — ample for order-of-magnitude costing — at 64
// bytes per column.
const sketchRegisters = 64

// colSketch estimates a column's distinct count: register j holds the
// maximum "leading-zero rank" observed among hash values routed to bucket j.
type colSketch struct {
	reg [sketchRegisters]uint8
}

// hashSym mixes an interned symbol into 64 well-distributed bits
// (splitmix64 finalizer — symbols are small dense integers, so the raw
// value cannot feed a bucketed sketch directly).
func hashSym(s relation.Tuple, i int) uint64 {
	x := uint64(s[i]) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (c *colSketch) add(h uint64) {
	j := h & (sketchRegisters - 1)
	rest := h >> 6 // the bucket bits are spent
	rank := uint8(1)
	for rest&1 == 0 && rank < 58 {
		rank++
		rest >>= 1
	}
	if rank > c.reg[j] {
		c.reg[j] = rank
	}
}

// estimate returns the distinct-count estimate, with linear counting for
// the small range where the raw harmonic-mean estimator is biased.
func (c *colSketch) estimate() int {
	sum, zeros := 0.0, 0
	for _, r := range c.reg {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	m := float64(sketchRegisters)
	est := 0.709 * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	n := int(est + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// relStats is the live (mutable) statistics state for one base relation,
// guarded by the owning store's statistics lock.
type relStats struct {
	rows int
	cols []colSketch
}

// note folds one successful insert into the statistics.
func (rs *relStats) note(t relation.Tuple) {
	rs.rows++
	for i := range t {
		rs.cols[i].add(hashSym(t, i))
	}
}

// RelStats is the read-only statistics snapshot for one base relation.
type RelStats struct {
	// Rows is the exact cardinality.
	Rows int
	// Distinct estimates the distinct value count per column (sketch-based,
	// ~13% relative error; always in [1, Rows] when Rows > 0).
	Distinct []int
}

// Stats is a consistent point-in-time snapshot of the database's
// statistics: exact cardinalities plus sketched per-column distinct
// counts, stamped with the version (epoch) they were read at. Planners
// compare Epoch against a later Version() to decide whether the snapshot
// has drifted.
type Stats struct {
	// Epoch is the database Version() the snapshot was taken at.
	Epoch uint64
	// Rows is the total fact count across all relations.
	Rows int
	// Rels maps every predicate with at least one fact to its statistics.
	Rels map[ast.PredKey]RelStats
}

// snapshotStats renders the live statistics map into a caller-owned Stats
// snapshot stamped with the given epoch. Callers hold their store's
// statistics lock, so the snapshot is consistent as of some instant.
func snapshotStats(epoch uint64, stats map[ast.PredKey]*relStats) Stats {
	st := Stats{Epoch: epoch, Rels: make(map[ast.PredKey]RelStats, len(stats))}
	for key, rs := range stats {
		dist := make([]int, len(rs.cols))
		for i := range rs.cols {
			d := rs.cols[i].estimate()
			if d > rs.rows {
				d = rs.rows // a column cannot exceed the relation's cardinality
			}
			dist[i] = d
		}
		st.Rels[key] = RelStats{Rows: rs.rows, Distinct: dist}
		st.Rows += rs.rows
	}
	return st
}
