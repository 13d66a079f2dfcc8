package xcluster

// Option configures Build, BuildReference, BuildContext and AutoBuild.
// Options compose left to right: later options override earlier ones.
type Option func(*Options)

// WithStructBudget sets the byte budget for the synopsis graph (nodes,
// edges, edge counts). The coarsest reachable structure is one cluster
// per (tag, value type).
func WithStructBudget(n int) Option {
	return func(o *Options) { o.StructBudget = n }
}

// WithValueBudget sets the byte budget for value summaries (histograms,
// pruned suffix trees, end-biased term histograms).
func WithValueBudget(n int) Option {
	return func(o *Options) { o.ValueBudget = n }
}

// WithValuePaths restricts value summarization to the given root label
// paths (e.g. "/dblp/author/paper/year"). Without it every value-bearing
// path is summarized.
func WithValuePaths(paths ...string) Option {
	return func(o *Options) { o.ValuePaths = paths }
}

// WithPSTDepth bounds the substring length retained by string summaries
// (default 4).
func WithPSTDepth(d int) Option {
	return func(o *Options) { o.PSTDepth = d }
}

// WithHistBuckets caps detailed numeric histograms (default: one bucket
// per distinct value).
func WithHistBuckets(n int) Option {
	return func(o *Options) { o.HistBuckets = n }
}

// WithMaxSummaryBytes caps each detailed reference value summary
// (default: unbounded).
func WithMaxSummaryBytes(n int) Option {
	return func(o *Options) { o.MaxSummaryBytes = n }
}

// NumericSummary selects the summarization tool for NUMERIC frequency
// distributions — the three tools the paper cites.
type NumericSummary int

const (
	// NumericHistogram is the default: bucketized frequency histograms.
	NumericHistogram NumericSummary = iota
	// NumericWavelet uses Haar-wavelet synopses.
	NumericWavelet
	// NumericSample uses seeded reservoir samples.
	NumericSample
)

// String returns the option-string form of the kind (the value the
// Options.NumericSummary field takes).
func (k NumericSummary) String() string {
	switch k {
	case NumericHistogram:
		return "histogram"
	case NumericWavelet:
		return "wavelet"
	case NumericSample:
		return "sample"
	}
	return "unknown"
}

// WithNumericSummary selects the NUMERIC summarization tool.
func WithNumericSummary(k NumericSummary) Option {
	return func(o *Options) { o.NumericSummary = k.String() }
}

// WithBuildWorkers sets the number of goroutines evaluating merge
// candidates during XCLUSTERBUILD. 0 (the default) uses GOMAXPROCS;
// negative values are rejected by Build. The worker count never
// changes the produced synopsis: parallel builds are bit-for-bit
// identical to serial ones, and the count is not part of the synopsis
// fingerprint.
func WithBuildWorkers(n int) Option {
	return func(o *Options) { o.BuildWorkers = n }
}

// WithBuildProgress registers a callback receiving periodic
// BuildProgress snapshots (phase, current sizes against budgets, merge
// and evaluation counters) while a build runs. The callback is invoked
// synchronously from the build, so it should return quickly.
func WithBuildProgress(fn func(BuildProgress)) Option {
	return func(o *Options) { o.BuildProgress = fn }
}

// WithBuildMetrics attaches a MetricSink to the build; XCLUSTERBUILD
// emits its counters (merges applied, candidate evaluations by
// outcome, phase durations) through it.
func WithBuildMetrics(sink MetricSink) Option {
	return func(o *Options) { o.BuildMetrics = sink }
}

// WithBuildStats points the build at a BuildStats to fill in: after a
// successful Build the struct holds the work performed (pairs
// evaluated, merges applied, per-phase wall times).
func WithBuildStats(st *BuildStats) Option {
	return func(o *Options) { o.BuildStats = st }
}

// applyOptions folds a list of options over the zero configuration.
func applyOptions(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
