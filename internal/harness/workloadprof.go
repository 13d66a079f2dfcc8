package harness

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"

	"context"

	"xcluster/internal/profile"
	"xcluster/internal/query"
	"xcluster/internal/service"
)

// WorkloadProfRow is one dataset of the workload-profiler overhead
// experiment: the per-estimate cost of the prepared serving hot path
// with the profiler disabled versus enabled at its default capacity.
// The profiler sits on every estimate, so its steady-state cost (a
// read-locked map probe plus a handful of atomic adds once every shape
// is admitted) is the number this experiment prices.
type WorkloadProfRow struct {
	Dataset string `json:"dataset"`
	Queries int    `json:"queries"`
	Iters   int    `json:"iters"`
	Rounds  int    `json:"rounds"`
	// OffNsPerOp is the prepared hot path (result cache off, plan cache
	// warm, trace store nil) with workload profiling disabled.
	OffNsPerOp     float64 `json:"off_ns_per_op"`
	OffAllocsPerOp float64 `json:"off_allocs_per_op"`
	// OnNsPerOp is the same path with the default profiler recording
	// every estimate.
	OnNsPerOp     float64 `json:"on_ns_per_op"`
	OnAllocsPerOp float64 `json:"on_allocs_per_op"`
	// OverheadPct is the relative slowdown of profiling in percent. The
	// design target pinned by BENCH_workload.json is < 10.
	OverheadPct float64 `json:"overhead_pct"`
	// Mismatches counts estimates that differed between configurations
	// (must be 0; profiling must never change answers).
	Mismatches int `json:"mismatches"`
	// TrackedShapes is how many canonical shapes the profiler held after
	// the timed rounds; with a workload smaller than the table capacity
	// it must equal the number of distinct shapes, error-free.
	TrackedShapes int `json:"tracked_shapes"`
	// RoundTripOK reports that the profiler's exported artifact parsed,
	// verified its fingerprint, and re-encoded to the same profile.
	RoundTripOK bool `json:"round_trip_ok"`
	// Fingerprint is the content hash of the captured profile, the same
	// value a rebuild would stamp on its SwapEvent.
	Fingerprint string `json:"fingerprint"`
}

// WorkloadProfExperiment measures workload-profiler overhead on one
// dataset's prepared serving hot path. iters is the number of timed
// estimates per round and configuration (0 means 2000); the off and on
// configurations run in interleaved best-of rounds like ObsExperiment,
// so a GC pause in one round cannot masquerade as profiler cost.
func WorkloadProfExperiment(d *Dataset, cfg Config, iters int) (WorkloadProfRow, error) {
	if iters <= 0 {
		iters = 2000
	}
	syn, err := cfg.BuildAt(d, d.Ref.StructBytes()/20)
	if err != nil {
		return WorkloadProfRow{}, err
	}
	qs := make([]*query.Query, 0, len(d.Workload.Queries))
	for i := range d.Workload.Queries {
		qs = append(qs, d.Workload.Queries[i].Q)
	}
	if len(qs) == 0 {
		return WorkloadProfRow{}, fmt.Errorf("harness: dataset %s has an empty workload", d.Name)
	}
	ctx := context.Background()

	// Off: profiling disabled; everything else identical to the on
	// configuration so the delta isolates the profiler itself.
	off := service.New(syn,
		service.WithCacheCapacity(-1),
		service.WithWorkloadProfile(-1, 0),
	)
	defer off.Close()
	on := service.New(syn, service.WithCacheCapacity(-1))
	defer on.Close()

	// Warm both plan caches, admit every shape, and cross-check answers.
	mismatches := 0
	for _, q := range qs {
		want, err := off.Estimate(ctx, q)
		if err != nil {
			return WorkloadProfRow{}, fmt.Errorf("harness: warm %s: %w", q, err)
		}
		got, err := on.Estimate(ctx, q)
		if err != nil {
			return WorkloadProfRow{}, fmt.Errorf("harness: warm %s: %w", q, err)
		}
		if got != want {
			mismatches++
		}
	}

	row := WorkloadProfRow{Dataset: d.Name, Queries: len(qs), Iters: iters, Rounds: obsRounds, Mismatches: mismatches}
	var sink float64
	configs := []struct {
		f          func(i int)
		ns, allocs *float64
	}{
		{func(i int) {
			v, _ := off.Estimate(ctx, qs[i%len(qs)])
			sink += v
		}, &row.OffNsPerOp, &row.OffAllocsPerOp},
		{func(i int) {
			v, _ := on.Estimate(ctx, qs[i%len(qs)])
			sink += v
		}, &row.OnNsPerOp, &row.OnAllocsPerOp},
	}
	for r := 0; r < obsRounds; r++ {
		for _, c := range configs {
			runtime.GC()
			ns, allocs := obsMeasure(iters, c.f)
			if r == 0 || ns < *c.ns {
				*c.ns = ns
			}
			if r == 0 || allocs < *c.allocs {
				*c.allocs = allocs
			}
		}
	}
	_ = sink

	if row.OffNsPerOp > 0 {
		row.OverheadPct = (row.OnNsPerOp - row.OffNsPerOp) / row.OffNsPerOp * 100
	}

	// Capture the artifact the profiler built during the timed rounds
	// and prove the export contract end to end: encode, parse, verify
	// fingerprint, compare.
	art, err := on.WorkloadProfile()
	if err != nil {
		return WorkloadProfRow{}, err
	}
	row.TrackedShapes = len(art.Shapes)
	row.Fingerprint = art.Fingerprint
	data, err := profile.Encode(art)
	if err != nil {
		return WorkloadProfRow{}, err
	}
	parsed, err := profile.Parse(data)
	row.RoundTripOK = err == nil && reflect.DeepEqual(parsed, art)
	return row, nil
}

// FormatWorkloadProfJSON renders the experiment rows as indented JSON
// (the machine-readable output of `xclusterbench -experiment workload`).
func FormatWorkloadProfJSON(rows []WorkloadProfRow) string {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err)
	}
	return string(b)
}

// FormatWorkloadProf renders the experiment rows as aligned text.
func FormatWorkloadProf(rows []WorkloadProfRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Workload Profiler Overhead (prepared hot path)\n")
	fmt.Fprintf(&sb, "%-8s %10s %10s %10s %10s %8s %10s\n",
		"", "Off ns/op", "On ns/op", "Overhead", "allocs/op", "shapes", "roundtrip")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %10.0f %10.0f %9.1f%% %10.1f %8d %10v\n",
			r.Dataset, r.OffNsPerOp, r.OnNsPerOp, r.OverheadPct,
			r.OnAllocsPerOp, r.TrackedShapes, r.RoundTripOK)
	}
	return sb.String()
}
