package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"xcluster/internal/catalog"
)

// config is the validated daemon configuration.
type config struct {
	synPath        string
	catalogPath    string
	addr           string
	timeout        time.Duration
	cache          int
	planCap        int
	drain          time.Duration
	slowQ          time.Duration
	slowCap        int
	pprofAddr      string
	logLevel       string
	version        bool
	docPath        string
	shadowRate     float64
	shadowWorkers  int
	shadowDeadline time.Duration
	bstr           int
	bval           int
	rebuildOnDrift bool
	adaptiveBudget bool
	buildWorkers   int
	workloadCap    int

	// Server-wide SLO defaults; manifest shard entries override them.
	sloAvailability  float64
	sloLatency       time.Duration
	sloLatencyTarget float64
}

const usageLine = "usage: xclusterd -syn syn.bin | -catalog manifest.json [-addr :8080] [-doc doc.xml] [-bstr N -bval N] [-shadow-rate 0.01] [-timeout 5s] [-slowquery 100ms] [-pprof-addr :6060]"

// parseFlags parses and validates the daemon's command line. Invalid
// values fail here, before any file is opened or listener bound, with a
// message naming the offending flag; output (usage text, parse errors)
// goes to out.
func parseFlags(args []string, out io.Writer) (*config, error) {
	c := &config{}
	fs := newFlagSet(c, out)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := c.validate(set); err != nil {
		fmt.Fprintf(out, "xclusterd: %v\n%s\n", err, usageLine)
		return nil, err
	}
	return c, nil
}

// newFlagSet registers every daemon flag, bound to c's fields, on a
// fresh flag set that reports to out.
func newFlagSet(c *config, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("xclusterd", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&c.synPath, "syn", "", "serialized synopsis to serve (see xcluster build -o; this or -catalog is required)")
	fs.StringVar(&c.catalogPath, "catalog", "", "multi-tenant catalog manifest (JSON; serves one shard per (tenant, collection) entry)")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&c.timeout, "timeout", 5*time.Second, "per-request estimation deadline (0 disables)")
	fs.IntVar(&c.cache, "cache", 0, "query-result cache capacity (default 1024, negative disables)")
	fs.IntVar(&c.planCap, "plancache", 0, "compiled-plan cache capacity (default 256, negative disables)")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful-shutdown deadline for draining in-flight work")
	fs.DurationVar(&c.slowQ, "slowquery", 100*time.Millisecond, "slow-query log threshold (0 disables)")
	fs.IntVar(&c.slowCap, "slowlog-cap", 0, "slow-query log ring capacity (default 128)")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	fs.StringVar(&c.logLevel, "log-level", "info", "log level: debug, info, warn or error")
	fs.BoolVar(&c.version, "version", false, "print build info and exit")
	fs.StringVar(&c.docPath, "doc", "", "source XML document, kept resident for shadow evaluation and /admin/rebuild")
	fs.Float64Var(&c.shadowRate, "shadow-rate", 0, "fraction of estimates to shadow-verify against -doc (0 disables, 1 samples all)")
	fs.IntVar(&c.shadowWorkers, "shadow-workers", 0, "shadow evaluation worker goroutines (default 1)")
	fs.DurationVar(&c.shadowDeadline, "shadow-deadline", 2*time.Second, "per-query shadow evaluation deadline (must be positive)")
	fs.IntVar(&c.bstr, "bstr", 0, "structural byte budget for /admin/rebuild (default: the served synopsis's own)")
	fs.IntVar(&c.bval, "bval", 0, "value-summary byte budget for /admin/rebuild (default: the served synopsis's own)")
	fs.BoolVar(&c.rebuildOnDrift, "rebuild-on-drift", false, "trigger a background rebuild when accuracy drift is detected (requires -doc)")
	fs.BoolVar(&c.adaptiveBudget, "adaptive-budget", false, "derive rebuild budget splits from the live workload profile (requires -doc; see GET /debug/budget)")
	fs.IntVar(&c.buildWorkers, "build-workers", 0, "merge-candidate evaluation goroutines for /admin/rebuild (default GOMAXPROCS; never changes the built synopsis)")
	fs.IntVar(&c.workloadCap, "workload-cap", 0, "workload profiler shape-table capacity per shard (default 256, negative disables profiling)")
	fs.Float64Var(&c.sloAvailability, "slo-availability", 0, "availability objective in (0,1), e.g. 0.999 (0 disables; manifest shard entries override)")
	fs.DurationVar(&c.sloLatency, "slo-latency", 0, "latency objective per estimate, e.g. 50ms (0 disables; manifest shard entries override)")
	fs.Float64Var(&c.sloLatencyTarget, "slo-latency-target", 0, "fraction of requests that must beat -slo-latency (default 0.99; requires -slo-latency)")
	return fs
}

// validate rejects nonsensical configurations with a clear usage error.
// set reports which flags were given explicitly, so "explicit zero" and
// "defaulted" are distinguishable where the distinction matters.
func (c *config) validate(set map[string]bool) error {
	if c.version {
		return nil // -version ignores everything else
	}
	if c.synPath == "" && c.catalogPath == "" {
		return fmt.Errorf("missing required -syn (the synopsis file to serve) or -catalog (a multi-tenant manifest)")
	}
	if c.synPath != "" && c.catalogPath != "" {
		return fmt.Errorf("-syn and -catalog are mutually exclusive: the manifest names each shard's synopsis")
	}
	if c.catalogPath != "" {
		// Per-shard settings live in the manifest in catalog mode; an
		// explicitly given single-synopsis flag is a configuration error,
		// not something to silently ignore.
		for _, f := range []string{"doc", "shadow-rate", "shadow-workers", "shadow-deadline", "bstr", "bval", "rebuild-on-drift", "adaptive-budget"} {
			if set[f] {
				return fmt.Errorf("-%s is a per-shard setting: with -catalog, set it in the manifest's shard entries", f)
			}
		}
	}
	if set["bstr"] && c.bstr <= 0 {
		return fmt.Errorf("-bstr must be a positive byte budget, got %d", c.bstr)
	}
	if set["bval"] && c.bval <= 0 {
		return fmt.Errorf("-bval must be a positive byte budget, got %d", c.bval)
	}
	if c.cache > catalog.MaxCacheCapacity {
		return fmt.Errorf("-cache must be at most %d, got %d", catalog.MaxCacheCapacity, c.cache)
	}
	if c.planCap > catalog.MaxCacheCapacity {
		return fmt.Errorf("-plancache must be at most %d, got %d", catalog.MaxCacheCapacity, c.planCap)
	}
	if c.timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", c.timeout)
	}
	if c.shadowRate < 0 || c.shadowRate > 1 {
		return fmt.Errorf("-shadow-rate must be in [0,1], got %g", c.shadowRate)
	}
	if c.shadowRate > 0 && c.docPath == "" {
		return fmt.Errorf("-shadow-rate requires -doc (the document to evaluate exactly)")
	}
	if c.shadowDeadline <= 0 {
		return fmt.Errorf("-shadow-deadline must be positive, got %v", c.shadowDeadline)
	}
	if c.shadowWorkers < 0 || c.shadowWorkers > catalog.MaxShadowWorkers {
		return fmt.Errorf("-shadow-workers must be in [0,%d], got %d", catalog.MaxShadowWorkers, c.shadowWorkers)
	}
	if c.rebuildOnDrift && c.docPath == "" {
		return fmt.Errorf("-rebuild-on-drift requires -doc (the document to rebuild from)")
	}
	if c.adaptiveBudget && c.docPath == "" {
		return fmt.Errorf("-adaptive-budget requires -doc (the document adaptive rebuilds rebuild from)")
	}
	if c.adaptiveBudget && c.workloadCap < 0 {
		return fmt.Errorf("-adaptive-budget requires workload profiling (-workload-cap %d disables it)", c.workloadCap)
	}
	if (set["bstr"] || set["bval"]) && c.docPath == "" {
		return fmt.Errorf("-bstr/-bval configure /admin/rebuild and require -doc")
	}
	if c.buildWorkers < 0 {
		return fmt.Errorf("-build-workers must be non-negative (0 = GOMAXPROCS), got %d", c.buildWorkers)
	}
	// SLO flags are server-wide defaults, legitimate in both modes (the
	// manifest's per-shard objectives win where both are set).
	if c.sloAvailability != 0 && (c.sloAvailability <= 0 || c.sloAvailability >= 1) {
		return fmt.Errorf("-slo-availability must be in (0,1), got %g", c.sloAvailability)
	}
	if c.sloLatency < 0 {
		return fmt.Errorf("-slo-latency must be non-negative, got %v", c.sloLatency)
	}
	if set["slo-latency-target"] {
		if c.sloLatencyTarget <= 0 || c.sloLatencyTarget >= 1 {
			return fmt.Errorf("-slo-latency-target must be in (0,1), got %g", c.sloLatencyTarget)
		}
		if c.sloLatency == 0 {
			return fmt.Errorf("-slo-latency-target requires -slo-latency (the objective it applies to)")
		}
	}
	// In catalog mode rebuilds are per shard (manifest documents), so
	// -build-workers is a legitimate server-wide knob there.
	if set["build-workers"] && c.docPath == "" && c.catalogPath == "" {
		return fmt.Errorf("-build-workers configures /admin/rebuild and requires -doc")
	}
	return nil
}
