package query

import "testing"

// CheckCanonical exposes the canonical-rendering oracle check to the
// external test package, which may import the workload generator.
var CheckCanonical = checkCanonical

// CheckParseOracle parses s and checks the answer against the oracle
// parser (checkOracle), for the external test package.
func CheckParseOracle(t testing.TB, s string) {
	t.Helper()
	q, err := Parse(s)
	checkOracle(t, s, q, err)
}
