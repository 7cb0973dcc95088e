//go:build race

package mpq

// raceEnabled reports a test binary built with -race, whose instrumentation
// allocates on its own account: allocation budgets are not held under it.
const raceEnabled = true
