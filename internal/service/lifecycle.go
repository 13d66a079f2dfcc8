package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xcluster/internal/core"
)

// Lifecycle errors, tested with errors.Is by the HTTP layer.
var (
	// ErrNoSource reports a Reload on a service configured without
	// WithSynopsisSource.
	ErrNoSource = errors.New("service: no synopsis source configured (WithSynopsisSource)")
	// ErrNoDocument reports a Rebuild on a service without a resident
	// source document (WithDocument).
	ErrNoDocument = errors.New("service: no resident document to rebuild from (WithDocument)")
	// ErrRebuildInProgress reports a Rebuild submitted while another
	// rebuild is running; rebuilds are single-flight.
	ErrRebuildInProgress = errors.New("service: rebuild already in progress")
)

// slot is one installed synopsis generation: the synopsis, its
// estimator, and when it went live. A slot is immutable; the lifecycle
// replaces the whole slot atomically, and each estimate pins the slot
// it started on, so a request never observes a half-swapped pair.
type slot struct {
	syn       *core.Synopsis
	est       *core.Estimator
	installed time.Time
}

// newSlot builds a fully configured slot for syn: a fresh estimator
// carrying the service's stored configuration. Every generation is constructed through here, so a rebuilt
// estimator is indistinguishable from a cold start over the same
// synopsis.
func (s *Service) newSlot(syn *core.Synopsis) *slot {
	est := core.NewEstimator(syn)
	if s.cacheCapSet {
		est.SetCacheCapacity(s.cacheCap)
	}
	if s.planCapSet {
		est.SetPlanCacheCapacity(s.planCap)
	}
	return &slot{syn: syn, est: est, installed: time.Now()}
}

// SwapEvent describes one completed synopsis hot swap.
type SwapEvent struct {
	// OldGeneration and NewGeneration are the build generations before
	// and after the swap.
	OldGeneration uint64 `json:"old_generation"`
	NewGeneration uint64 `json:"new_generation"`
	// Reason records what triggered the swap ("reload", "rebuild",
	// "drift:<class>", ...).
	Reason string `json:"reason"`
	// Nodes and TotalBytes describe the installed synopsis.
	Nodes      int `json:"nodes"`
	TotalBytes int `json:"total_bytes"`
	// Duration is the wall time of the whole operation (load or build,
	// estimator construction, swap).
	Duration time.Duration `json:"-"`
	// DurationString mirrors Duration for the JSON rendering.
	DurationString string `json:"duration"`
	// Build carries the construction statistics when the swap came from
	// a Rebuild (nil for reloads, whose synopsis was built elsewhere).
	Build *core.BuildStats `json:"build,omitempty"`
	// Fingerprint is the installed generation's build identity: its
	// budgets and their provenance. ActualSplit is the realized byte
	// split, so every swap records planned versus actual.
	Fingerprint core.Fingerprint `json:"fingerprint"`
	ActualSplit *core.ByteSplit  `json:"actual_split,omitempty"`
	// WorkloadFingerprint is the workload profiler's mix fingerprint at
	// swap time (empty when profiling is disabled), recording which
	// traffic mix was live when the generation was installed — the
	// anchor for auditing workload-adaptive rebuilds later.
	WorkloadFingerprint string `json:"workload_fingerprint,omitempty"`
}

// WithSynopsisSource configures where Reload re-reads the synopsis from
// (e.g. a closure reopening the -syn file). Without it Reload fails
// with ErrNoSource.
func WithSynopsisSource(load func(context.Context) (*core.Synopsis, error)) Option {
	return func(s *Service) { s.source = load }
}

// WithOnSwap installs an observer fired after every completed hot swap
// (initial installation excluded), on the goroutine that performed the
// swap. Repeated options chain in installation order.
func WithOnSwap(fn func(SwapEvent)) Option {
	return func(s *Service) {
		if prev := s.onSwap; prev != nil {
			s.onSwap = func(ev SwapEvent) {
				prev(ev)
				fn(ev)
			}
			return
		}
		s.onSwap = fn
	}
}

// WithRebuildOnDrift makes an accuracy drift transition trigger a
// background Rebuild (single-flight; a drift storm cannot stack
// rebuilds). Requires a resident document; without one the triggered
// rebuilds fail into RebuildStatus and the drift logging still fires.
func WithRebuildOnDrift() Option {
	return func(s *Service) { s.rebuildOnDrift = true }
}

// WithRebuildBudgets sets the default byte budgets Rebuild uses when
// the request does not carry its own and the current synopsis's
// fingerprint has none (e.g. it came from a legacy v1 artifact).
func WithRebuildBudgets(structBudget, valueBudget int) Option {
	return func(s *Service) { s.defaultBstr, s.defaultBval = structBudget, valueBudget }
}

// WithBuildWorkers sets the number of goroutines Rebuild's compression
// phase uses to evaluate merge candidates (0 = GOMAXPROCS). The count
// affects only build speed, never the produced synopsis.
func WithBuildWorkers(n int) Option {
	return func(s *Service) { s.buildWorkers = n }
}

// Generation returns the build generation of the currently served
// synopsis.
func (s *Service) Generation() uint64 {
	return s.cur.Load().syn.Fingerprint().Generation
}

// Installed returns when the current generation went live.
func (s *Service) Installed() time.Time {
	return s.cur.Load().installed
}

// install stamps syn with the next generation, builds its estimator,
// and swaps it in. In-flight estimates finish on the slot they pinned.
// Caches are generation-local: each generation has its own estimator,
// new requests load the new slot and never consult the old one, and the
// retired slot, caches included, is collected when its last pinned
// request returns.
func (s *Service) install(syn *core.Synopsis, reason string, d time.Duration, build *core.BuildStats) SwapEvent {
	s.swapMu.Lock()
	old := s.cur.Load()
	fp := syn.Fingerprint()
	fp.Generation = old.syn.Fingerprint().Generation + 1
	syn.SetFingerprint(fp)
	s.cur.Store(s.newSlot(syn))
	s.genGauge.Set(float64(fp.Generation))
	s.swaps.Inc()
	s.swapMu.Unlock()
	split := syn.Split()
	ev := SwapEvent{
		OldGeneration:       old.syn.Fingerprint().Generation,
		NewGeneration:       fp.Generation,
		Reason:              reason,
		Nodes:               syn.NumNodes(),
		TotalBytes:          syn.TotalBytes(),
		Duration:            d,
		DurationString:      d.String(),
		Build:               build,
		Fingerprint:         fp,
		ActualSplit:         &split,
		WorkloadFingerprint: s.prof.Fingerprint(time.Now()),
	}
	if s.onSwap != nil {
		s.onSwap(ev)
	}
	return ev
}

// Reload re-reads the synopsis through the configured source and hot
// swaps it in (e.g. after `xcluster build` wrote a fresh artifact over
// the served file). Serving continues on the old generation until the
// new one is fully constructed.
func (s *Service) Reload(ctx context.Context) (SwapEvent, error) {
	if s.source == nil {
		return SwapEvent{}, ErrNoSource
	}
	t0 := time.Now()
	syn, err := s.source(ctx)
	if err != nil {
		return SwapEvent{}, fmt.Errorf("service: reload: %w", err)
	}
	if err := syn.Validate(); err != nil {
		return SwapEvent{}, fmt.Errorf("service: reload: %w", err)
	}
	return s.install(syn, "reload", time.Since(t0), nil), nil
}

// RebuildOptions parameterize one Rebuild.
type RebuildOptions struct {
	// StructBudget and ValueBudget are the byte budgets of the new
	// synopsis. Nonpositive values inherit down the precedence chain
	// documented on rebuild.
	StructBudget int `json:"struct_budget,omitempty"`
	ValueBudget  int `json:"value_budget,omitempty"`
	// Adaptive asks budget.Plan to re-split the inherited total budget
	// by searching on the live workload profile's shapes (ignored when
	// explicit budgets are given — an operator override always wins).
	// Drift-triggered rebuilds set it when WithAdaptiveBudget is
	// configured.
	Adaptive bool `json:"adaptive,omitempty"`
	// Reason is recorded in the swap event and rebuild status
	// ("rebuild" when empty).
	Reason string `json:"reason,omitempty"`
}

// Rebuild phases, reported by RebuildStatus while a rebuild runs.
const (
	PhaseIdle      = "idle"
	PhaseReference = "reference"
	PhaseCompress  = "compress"
	PhaseInstall   = "install"
)

// RebuildStatus is a snapshot of the single-flight rebuilder.
type RebuildStatus struct {
	// Running reports an in-flight rebuild; Phase localizes it
	// (reference → compress → install; "idle" when not running).
	Running bool   `json:"running"`
	Phase   string `json:"phase"`
	// StartedAt is the running rebuild's start time (zero when idle).
	StartedAt time.Time `json:"started_at,omitzero"`
	// LastOutcome ("ok" / "error", empty before the first attempt),
	// LastError, LastDuration and LastGeneration describe the most
	// recently finished rebuild.
	LastOutcome    string        `json:"last_outcome,omitempty"`
	LastError      string        `json:"last_error,omitempty"`
	LastDuration   time.Duration `json:"-"`
	LastDurationMS int64         `json:"last_duration_ms,omitempty"`
	LastGeneration uint64        `json:"last_generation,omitempty"`
	// LastBuildStats is the construction profile of the most recent
	// successful rebuild (merges, pairs evaluated, phase times).
	LastBuildStats *core.BuildStats `json:"last_build,omitempty"`
}

// RebuildStatus snapshots the rebuilder.
func (s *Service) RebuildStatus() RebuildStatus {
	s.rbMu.Lock()
	defer s.rbMu.Unlock()
	return s.rb
}

// setPhase publishes the running rebuild's phase.
func (s *Service) setPhase(phase string) {
	s.rbMu.Lock()
	s.rb.Phase = phase
	s.rbMu.Unlock()
}

// Rebuild reconstructs the synopsis from the resident source document —
// reference construction, then the budgeted XCLUSTERBUILD compression —
// and hot swaps the result in. It is single-flight (a concurrent call
// fails fast with ErrRebuildInProgress), cancellable through ctx (the
// compression phases poll it), and reports build-phase timings into the
// metrics registry. Serving is never interrupted: estimates keep
// running on the old generation until the swap, and post-swap estimates
// are bit-for-bit what a cold estimator over the same document and
// budgets would produce.
func (s *Service) Rebuild(ctx context.Context, opts RebuildOptions) (SwapEvent, error) {
	if s.doc == nil {
		return SwapEvent{}, ErrNoDocument
	}
	t0, err := s.claimRebuild()
	if err != nil {
		return SwapEvent{}, err
	}
	return s.runRebuild(ctx, opts, t0)
}

// claimRebuild marks a rebuild running, started now, and returns the
// start time; ErrRebuildInProgress when one already runs. The claim is
// made under rbMu, so RebuildStatus never reads idle while a claim is
// refused.
func (s *Service) claimRebuild() (time.Time, error) {
	t0 := time.Now()
	s.rbMu.Lock()
	defer s.rbMu.Unlock()
	if s.rb.Running {
		return time.Time{}, ErrRebuildInProgress
	}
	s.rb.Running = true
	s.rb.Phase = PhaseReference
	s.rb.StartedAt = t0
	return t0, nil
}

// runRebuild runs a claimed rebuild, started at t0, and releases the
// claim with its outcome in RebuildStatus and the rebuild metrics.
func (s *Service) runRebuild(ctx context.Context, opts RebuildOptions, t0 time.Time) (SwapEvent, error) {
	ev, err := s.rebuild(ctx, opts, t0)

	s.rbMu.Lock()
	s.rb.Running = false
	s.rb.Phase = PhaseIdle
	s.rb.StartedAt = time.Time{}
	s.rb.LastDuration = time.Since(t0)
	s.rb.LastDurationMS = s.rb.LastDuration.Milliseconds()
	if err != nil {
		s.rb.LastOutcome = "error"
		s.rb.LastError = err.Error()
	} else {
		s.rb.LastOutcome = "ok"
		s.rb.LastError = ""
		s.rb.LastGeneration = ev.NewGeneration
		s.rb.LastBuildStats = ev.Build
	}
	s.rbMu.Unlock()
	if err != nil {
		s.rebuildsErr.Inc()
		return SwapEvent{}, err
	}
	s.rebuildsOK.Inc()
	s.rebuildHist.Observe(ev.Duration.Seconds())
	return ev, nil
}

// StartRebuild checks Rebuild's preconditions — a resident document,
// and the workload profiler when the rebuild would plan adaptively —
// claims the single-flight rebuilder, then runs the rebuild in the
// background and returns at once. A precondition failure comes back
// typed (ErrNoDocument, ErrNoProfiler), and a rebuild already running
// as ErrRebuildInProgress, so a request that can only fail is refused
// up front; the background outcome lands in RebuildStatus.
func (s *Service) StartRebuild(opts RebuildOptions) error {
	if s.doc == nil {
		return ErrNoDocument
	}
	if opts.Adaptive && opts.StructBudget <= 0 && opts.ValueBudget <= 0 && s.prof == nil {
		return ErrNoProfiler
	}
	t0, err := s.claimRebuild()
	if err != nil {
		return err
	}
	go func() { _, _ = s.runRebuild(context.Background(), opts, t0) }()
	return nil
}

// rebuild is Rebuild's body: build the new generation off the serving
// path, then install it.
//
// Budget precedence, highest to lowest (contractual — tested by
// TestRebuildBudgetPrecedence, documented in DESIGN.md §16):
//
//  1. Explicit RebuildOptions budgets: an operator override beats
//     everything, including adaptive planning.
//  2. Adaptive split: with opts.Adaptive set and no explicit budgets,
//     budget.Plan re-splits the total inherited from steps 3–5 by
//     searching on the live workload profile's shapes.
//  3. The serving fingerprint's budgets (rebuild what was built).
//  4. The WithRebuildBudgets defaults (legacy artifacts carry no
//     fingerprint budgets).
//  5. The serving synopsis's actual struct/value sizes (last resort:
//     rebuild at the size being served).
//
// Each group (struct, value) walks 3–5 independently (inheritBudgets);
// adaptive planning then redistributes their sum, so step 2 changes
// the split, never the total.
func (s *Service) rebuild(ctx context.Context, opts RebuildOptions, t0 time.Time) (SwapEvent, error) {
	adaptive := opts.Adaptive && opts.StructBudget <= 0 && opts.ValueBudget <= 0
	if adaptive && s.prof == nil {
		return SwapEvent{}, fmt.Errorf("service: rebuild: %w", ErrNoProfiler)
	}
	cur := s.cur.Load().syn
	bstr, bval := s.inheritBudgets(cur, opts.StructBudget, opts.ValueBudget)
	if opts.Reason == "" {
		opts.Reason = "rebuild"
	}

	ref, err := core.BuildReference(s.doc, core.ReferenceOptions{})
	if err != nil {
		return SwapEvent{}, fmt.Errorf("service: rebuild: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return SwapEvent{}, fmt.Errorf("service: rebuild: %w", err)
	}
	s.setPhase(PhaseCompress)
	var st core.BuildStats
	bopts := core.BuildOptions{Workers: s.buildWorkers, Metrics: s.reg, Stats: &st}
	var built *core.Synopsis
	if adaptive {
		// Keep the serving fingerprint (provenance included, for
		// hysteresis) when its budgets are the inherited split.
		inherited := cur.Fingerprint()
		if inherited.StructBudget != bstr || inherited.ValueBudget != bval {
			inherited = core.Fingerprint{StructBudget: bstr, ValueBudget: bval, Provenance: core.ProvenanceStatic}
		}
		built, err = s.planAdaptive(ctx, ref, inherited, bopts)
	} else {
		bopts.StructBudget, bopts.ValueBudget = bstr, bval
		built, err = core.XClusterBuildContext(ctx, ref, bopts)
	}
	if err != nil {
		return SwapEvent{}, fmt.Errorf("service: rebuild: %w", err)
	}
	s.setPhase(PhaseInstall)
	return s.install(built, opts.Reason, time.Since(t0), &st), nil
}

// inheritBudgets resolves a rebuild's struct and value budgets: each
// positive argument stands, and each other one walks steps 3–5 of the
// precedence documented on rebuild — the serving fingerprint's budget,
// then the WithRebuildBudgets default, then the serving synopsis's
// actual size.
func (s *Service) inheritBudgets(cur *core.Synopsis, bstr, bval int) (int, int) {
	fp := cur.Fingerprint()
	pick := func(chain ...int) int {
		for _, v := range chain {
			if v > 0 {
				return v
			}
		}
		return 0
	}
	return pick(bstr, fp.StructBudget, s.defaultBstr, cur.StructBytes()),
		pick(bval, fp.ValueBudget, s.defaultBval, cur.ValueBytes())
}
