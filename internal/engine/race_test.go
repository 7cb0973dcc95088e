//go:build race

package engine

// raceEnabled reports a test binary built with -race. The detector makes
// sync.Pool drop a quarter of what is put back, so pooled runs allocate more
// under it and TestAllocBudget widens its budget.
const raceEnabled = true
