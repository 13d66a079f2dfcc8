package service

import (
	"time"

	"xcluster/internal/accuracy"
)

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

// HoldRebuild marks a rebuild running, as one in flight would, until
// the returned release is called.
func (s *Service) HoldRebuild() (release func()) {
	if _, err := s.claimRebuild(); err != nil {
		panic(err)
	}
	return func() {
		s.rbMu.Lock()
		s.rb.Running, s.rb.Phase, s.rb.StartedAt = false, PhaseIdle, time.Time{}
		s.rbMu.Unlock()
	}
}

// WithTruthFunc overrides the ground-truth source for shadow sampling
// (it wins over WithDocument), so a test can force deadline expiry.
func WithTruthFunc(fn accuracy.TruthFunc) Option {
	return func(s *Service) { s.truth = fn }
}
