package service

// Fixtures shared with the external service_test package. Its tests
// drive the service over HTTP through a one-shard catalog, and
// internal/catalog imports this package, so they cannot live in it.
var (
	TestWorkload      = testWorkload
	NewTestSynopsis   = newTestSynopsis
	TestTree          = testTree
	ParseWorkload     = parseWorkload
	SequentialAnswers = sequentialAnswers
	ColdAnswers       = coldAnswers
	ProfileTraffic    = profileTraffic
)
