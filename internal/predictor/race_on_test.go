//go:build race

package predictor

func init() { raceEnabled = true }
