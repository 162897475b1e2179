//go:build race

package fedsql

func init() { raceDetector = true }
