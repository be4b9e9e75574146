//go:build race

package prun

func init() { raceEnabled = true }
