//go:build race

package recsim

// raceDetectorEnabled shortens tests whose Go loops the race detector
// slows by an order of magnitude.
const raceDetectorEnabled = true
