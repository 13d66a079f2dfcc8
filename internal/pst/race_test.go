//go:build race

package pst

func init() { raceEnabled = true }
