package query

// CheckCanonical exposes the canonical-rendering oracle check to the
// external test package, which may import the workload generator.
var CheckCanonical = checkCanonical
