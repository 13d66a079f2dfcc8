//go:build race

package xmltree_test

func init() { raceEnabled = true }
