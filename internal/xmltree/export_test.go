package xmltree

import "testing"

// CheckParseOracle checks Parse against the oracle parser on doc under
// ParseOptions{}, {Attributes: true} and {Attributes: true} with a
// recording hint (checkOracle), for the external test package, which
// may import the generators.
func CheckParseOracle(t testing.TB, doc []byte) {
	t.Helper()
	for _, opts := range oracleOptions {
		checkOracle(t, doc, opts)
	}
}

// oracleOptions are the option sets the oracle checks run under.
var oracleOptions = []ParseOptions{{}, {Attributes: true}, {Attributes: true, Hint: DefaultTypeHint}}
