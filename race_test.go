//go:build race

package recsim

// raceDetectorEnabled gates allocation budgets over code that recycles
// through sync.Pool, which under the race detector drops a quarter of
// what is put back.
const raceDetectorEnabled = true
