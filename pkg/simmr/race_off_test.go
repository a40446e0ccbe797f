//go:build !race

package simmr

// raceDetectorEnabled is false in ordinary test builds; see
// race_on_test.go.
const raceDetectorEnabled = false
