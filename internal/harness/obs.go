package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"xcluster/internal/obs"
	"xcluster/internal/query"
	"xcluster/internal/service"
)

// obsRounds is how many interleaved timing rounds each configuration
// gets; the row keeps the best round, which is robust against GC pauses
// and scheduler noise that a single long pass folds into the mean.
const obsRounds = 5

// ObsRow is one dataset of the observability-overhead experiment: the
// per-estimate cost of the serving hot path with telemetry disabled,
// with telemetry enabled but the request sampled out (no span in the
// context — the cost every untraced request pays), and with a root span
// recorded per call (the fully traced cost).
type ObsRow struct {
	Dataset string `json:"dataset"`
	// Queries is the workload size; Iters the number of timed estimates
	// per round (each configuration runs obsRounds interleaved rounds
	// and reports its best).
	Queries int `json:"queries"`
	Iters   int `json:"iters"`
	Rounds  int `json:"rounds"`
	// BaseNsPerOp is the prepared hot path (result cache off, plan cache
	// warm) with no SLO configured.
	BaseNsPerOp     float64 `json:"base_ns_per_op"`
	BaseAllocsPerOp float64 `json:"base_allocs_per_op"`
	// OffNsPerOp is the same path with SLO tracking enabled but no span
	// in the context: the request is sampled out, so the only tracing
	// cost is one context lookup per estimate.
	OffNsPerOp     float64 `json:"off_ns_per_op"`
	OffAllocsPerOp float64 `json:"off_allocs_per_op"`
	// OnNsPerOp creates, finishes, and records into a trace store a root
	// span per estimate: the worst-case fully traced cost.
	OnNsPerOp     float64 `json:"on_ns_per_op"`
	OnAllocsPerOp float64 `json:"on_allocs_per_op"`
	// OverheadOffPct and OverheadOnPct are the relative slowdowns of the
	// off and on configurations over the base, in percent. The design
	// target pinned by BENCH_obs.json is OverheadOffPct < 10: telemetry
	// must be effectively free for requests that are not traced.
	OverheadOffPct float64 `json:"overhead_off_pct"`
	OverheadOnPct  float64 `json:"overhead_on_pct"`
	// Mismatches counts estimates that differed between configurations
	// (must be 0; telemetry must never change answers).
	Mismatches int `json:"mismatches"`
}

// obsMeasure times iters calls of f and returns ns/op and allocs/op.
// Allocation counts come from the runtime's exact heap-allocation event
// counter, so they are deterministic for a single-goroutine loop.
func obsMeasure(iters int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	a0 := obs.HeapAllocObjects()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f(i)
	}
	elapsed := time.Since(t0)
	allocs := obs.HeapAllocObjects() - a0
	return float64(elapsed.Nanoseconds()) / float64(iters), float64(allocs) / float64(iters)
}

// ObsExperiment measures observability overhead on one dataset's
// prepared serving hot path (result cache off so every call executes,
// plan cache warmed so no call compiles). iters is the number of timed
// estimates per round and configuration (0 means 2000); configurations
// run in interleaved rounds and report their best round, so a GC pause
// or scheduler hiccup in one round cannot masquerade as overhead.
func ObsExperiment(d *Dataset, cfg Config, iters int) (ObsRow, error) {
	if iters <= 0 {
		iters = 2000
	}
	syn, err := cfg.BuildAt(d, d.Ref.StructBytes()/20)
	if err != nil {
		return ObsRow{}, err
	}
	qs := make([]*query.Query, 0, len(d.Workload.Queries))
	for i := range d.Workload.Queries {
		qs = append(qs, d.Workload.Queries[i].Q)
	}
	if len(qs) == 0 {
		return ObsRow{}, fmt.Errorf("harness: dataset %s has an empty workload", d.Name)
	}
	ctx := context.Background()

	// Base: telemetry off — no SLO, no spans.
	base := service.New(syn, service.WithCacheCapacity(-1))
	defer base.Close()
	// Telemetry on: SLO tracking, the full serving configuration. The off
	// and on measurements share it; only the presence of a span in the
	// context (recorded into a default trace store) differs.
	inst := service.New(syn,
		service.WithCacheCapacity(-1),
		service.WithSLO(obs.SLOConfig{Availability: 0.999, LatencyObjective: 50 * time.Millisecond}),
	)
	defer inst.Close()

	// Warm both plan caches and cross-check answers once.
	want := make([]float64, len(qs))
	mismatches := 0
	for i, q := range qs {
		if want[i], err = base.Estimate(ctx, q); err != nil {
			return ObsRow{}, fmt.Errorf("harness: warm %s: %w", q, err)
		}
		got, err := inst.Estimate(ctx, q)
		if err != nil {
			return ObsRow{}, fmt.Errorf("harness: warm %s: %w", q, err)
		}
		if got != want[i] {
			mismatches++
		}
	}

	row := ObsRow{Dataset: d.Name, Queries: len(qs), Iters: iters, Rounds: obsRounds, Mismatches: mismatches}
	var sink float64
	store := obs.NewTraceStore(0, 0)
	tctx := obs.WithRequestID(ctx, "bench")
	configs := []struct {
		f          func(i int)
		ns, allocs *float64
	}{
		{func(i int) {
			v, _ := base.Estimate(ctx, qs[i%len(qs)])
			sink += v
		}, &row.BaseNsPerOp, &row.BaseAllocsPerOp},
		{func(i int) {
			v, _ := inst.Estimate(ctx, qs[i%len(qs)])
			sink += v
		}, &row.OffNsPerOp, &row.OffAllocsPerOp},
		{func(i int) {
			sp := obs.NewSpan("bench", "bench")
			v, _ := inst.Estimate(obs.WithSpan(tctx, sp), qs[i%len(qs)])
			sp.Finish()
			store.Record(sp)
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

	if row.BaseNsPerOp > 0 {
		row.OverheadOffPct = (row.OffNsPerOp - row.BaseNsPerOp) / row.BaseNsPerOp * 100
		row.OverheadOnPct = (row.OnNsPerOp - row.BaseNsPerOp) / row.BaseNsPerOp * 100
	}
	return row, nil
}

// FormatObsJSON renders the experiment rows as indented JSON (the
// machine-readable output of `xclusterbench -experiment obs`).
func FormatObsJSON(rows []ObsRow) string {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err)
	}
	return string(b)
}

// FormatObs renders the experiment rows as aligned text.
func FormatObs(rows []ObsRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Observability Overhead (prepared hot path)\n")
	fmt.Fprintf(&sb, "%-8s %10s %12s %12s %10s %12s %10s\n",
		"", "Base ns/op", "Off ns/op", "Off ovh%", "On ns/op", "On ovh%", "allocs/op")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %10.0f %12.0f %11.1f%% %10.0f %11.1f%% %10.1f\n",
			r.Dataset, r.BaseNsPerOp, r.OffNsPerOp, r.OverheadOffPct,
			r.OnNsPerOp, r.OverheadOnPct, r.OnAllocsPerOp)
	}
	return sb.String()
}
