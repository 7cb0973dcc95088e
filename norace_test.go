//go:build !race

package mpq

const raceEnabled = false
