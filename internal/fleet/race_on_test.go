//go:build race

package fleet

// raceEnabled reports a -race build: the detector's instrumentation
// changes allocation counts, so allocation budgets do not apply.
const raceEnabled = true
