package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

func TestParseFlagsValid(t *testing.T) {
	c, err := parseFlags([]string{"-syn", "s.bin", "-addr", ":0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.synPath != "s.bin" || c.addr != ":0" {
		t.Fatalf("parsed %+v", c)
	}
	if c.shadowDeadline != 2*time.Second {
		t.Fatalf("shadow deadline default %v, want 2s", c.shadowDeadline)
	}
}

func TestParseFlagsVersionSkipsValidation(t *testing.T) {
	// -version must work without -syn (print build info and exit).
	c, err := parseFlags([]string{"-version"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.version {
		t.Fatal("version not set")
	}
}

func TestParseFlagsRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"missing syn", []string{}, "-syn"},
		{"syn and catalog", []string{"-syn", "s", "-catalog", "m.json"}, "mutually exclusive"},
		{"catalog with doc", []string{"-catalog", "m.json", "-doc", "d"}, "-doc is a per-shard setting"},
		{"catalog with shadow rate", []string{"-catalog", "m.json", "-shadow-rate", "0.5"}, "-shadow-rate is a per-shard setting"},
		{"catalog with budgets", []string{"-catalog", "m.json", "-bstr", "1024"}, "-bstr is a per-shard setting"},
		{"catalog with drift", []string{"-catalog", "m.json", "-rebuild-on-drift"}, "-rebuild-on-drift is a per-shard setting"},
		{"zero bstr", []string{"-syn", "s", "-doc", "d", "-bstr", "0"}, "-bstr must be a positive"},
		{"negative bstr", []string{"-syn", "s", "-doc", "d", "-bstr", "-5"}, "-bstr must be a positive"},
		{"zero bval", []string{"-syn", "s", "-doc", "d", "-bval", "0"}, "-bval must be a positive"},
		{"negative bval", []string{"-syn", "s", "-doc", "d", "-bval", "-1"}, "-bval must be a positive"},
		{"budgets without doc", []string{"-syn", "s", "-bstr", "1024"}, "require -doc"},
		{"shadow rate negative", []string{"-syn", "s", "-doc", "d", "-shadow-rate", "-0.1"}, "-shadow-rate must be in [0,1]"},
		{"shadow rate above one", []string{"-syn", "s", "-doc", "d", "-shadow-rate", "1.5"}, "-shadow-rate must be in [0,1]"},
		{"shadow rate without doc", []string{"-syn", "s", "-shadow-rate", "0.5"}, "requires -doc"},
		{"zero shadow deadline", []string{"-syn", "s", "-shadow-deadline", "0"}, "-shadow-deadline must be positive"},
		{"negative shadow deadline", []string{"-syn", "s", "-shadow-deadline", "-1s"}, "-shadow-deadline must be positive"},
		{"cache over cap", []string{"-syn", "s", "-cache", "100000000"}, "-cache must be at most"},
		{"plan cache over cap", []string{"-catalog", "m.json", "-plancache", "100000000"}, "-plancache must be at most"},
		{"shadow workers over cap", []string{"-syn", "s", "-shadow-workers", "100000"}, "-shadow-workers must be in [0,"},
		{"negative timeout", []string{"-syn", "s", "-timeout", "-1s"}, "-timeout must be non-negative"},
		{"drift without doc", []string{"-syn", "s", "-rebuild-on-drift"}, "requires -doc"},
		{"adaptive budget without doc", []string{"-syn", "s", "-adaptive-budget"}, "requires -doc"},
		{"adaptive budget without profiler", []string{"-syn", "s", "-doc", "d", "-adaptive-budget", "-workload-cap", "-1"}, "requires workload profiling"},
		{"catalog with adaptive budget", []string{"-catalog", "m.json", "-adaptive-budget"}, "-adaptive-budget is a per-shard setting"},
		{"negative build workers", []string{"-syn", "s", "-doc", "d", "-build-workers", "-1"}, "-build-workers must be non-negative"},
		{"build workers without doc", []string{"-syn", "s", "-build-workers", "4"}, "requires -doc"},
		{"slo availability above one", []string{"-syn", "s", "-slo-availability", "1.5"}, "-slo-availability must be in (0,1)"},
		{"slo availability exactly one", []string{"-syn", "s", "-slo-availability", "1"}, "-slo-availability must be in (0,1)"},
		{"negative slo latency", []string{"-syn", "s", "-slo-latency", "-50ms"}, "-slo-latency must be non-negative"},
		{"slo target out of range", []string{"-syn", "s", "-slo-latency", "50ms", "-slo-latency-target", "1.2"}, "-slo-latency-target must be in (0,1)"},
		{"slo target without latency", []string{"-syn", "s", "-slo-latency-target", "0.95"}, "-slo-latency-target requires -slo-latency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			_, err := parseFlags(tc.args, &sb)
			if err == nil {
				t.Fatalf("accepted %v", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The usage error reaches the user on stderr.
			if !strings.Contains(sb.String(), "usage: xclusterd") {
				t.Fatalf("no usage line in output: %q", sb.String())
			}
		})
	}
}

// TestParseFlagsCatalogMode: a manifest alone is a valid configuration,
// and server-wide flags (address, timeouts, caches) still apply.
func TestParseFlagsCatalogMode(t *testing.T) {
	c, err := parseFlags([]string{"-catalog", "m.json", "-addr", ":0", "-cache", "64"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.catalogPath != "m.json" || c.addr != ":0" || c.cache != 64 {
		t.Fatalf("parsed %+v", c)
	}
}

// TestParseFlagsDefaultBudgetsAllowed: unset budgets stay 0 ("use the
// synopsis's own") without tripping the positivity check.
func TestParseFlagsDefaultBudgetsAllowed(t *testing.T) {
	c, err := parseFlags([]string{"-syn", "s.bin", "-doc", "d.xml"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.bstr != 0 || c.bval != 0 {
		t.Fatalf("budgets %d/%d, want 0/0", c.bstr, c.bval)
	}
}

// TestParseFlagsSLO: SLO objectives are server-wide defaults valid in
// both single-shard and catalog mode (manifest entries override them).
func TestParseFlagsSLO(t *testing.T) {
	c, err := parseFlags([]string{"-syn", "s.bin",
		"-slo-availability", "0.999", "-slo-latency", "50ms", "-slo-latency-target", "0.95"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.sloAvailability != 0.999 || c.sloLatency != 50*time.Millisecond || c.sloLatencyTarget != 0.95 {
		t.Fatalf("parsed SLO %+v", c)
	}
	if _, err := parseFlags([]string{"-catalog", "m.json", "-slo-availability", "0.99"}, io.Discard); err != nil {
		t.Fatalf("catalog-mode SLO default rejected: %v", err)
	}
}

// TestParseFlagsWorkload: the profiler knobs are server-wide and valid
// in both modes; a negative capacity disables profiling per shard.
func TestParseFlagsWorkload(t *testing.T) {
	c, err := parseFlags([]string{"-syn", "s.bin", "-workload-cap", "512"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.workloadCap != 512 {
		t.Fatalf("parsed workload %+v", c)
	}
	if _, err := parseFlags([]string{"-catalog", "m.json", "-workload-cap", "-1"}, io.Discard); err != nil {
		t.Fatalf("catalog-mode workload disable rejected: %v", err)
	}
}

// TestParseFlagsBuildWorkers: explicit zero means "auto" and is valid,
// as is any positive count (with -doc present).
func TestParseFlagsBuildWorkers(t *testing.T) {
	for _, n := range []string{"0", "4"} {
		c, err := parseFlags([]string{"-syn", "s.bin", "-doc", "d.xml", "-build-workers", n}, io.Discard)
		if err != nil {
			t.Fatalf("-build-workers %s rejected: %v", n, err)
		}
		if got := c.buildWorkers; got < 0 {
			t.Fatalf("buildWorkers = %d", got)
		}
	}
}
