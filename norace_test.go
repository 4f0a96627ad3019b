//go:build !race

package recsim

const raceDetectorEnabled = false
