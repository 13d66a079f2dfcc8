// Command xclusterd serves twig-query selectivity estimates over HTTP
// from serialized XCluster synopses: the deployment shape where small
// summaries, built once from large documents, answer optimizer
// estimate requests for a fleet of query processors.
//
// The daemon always serves a shard catalog. In the classic
// single-synopsis mode (-syn) the catalog holds exactly one shard,
// addressed implicitly, and every endpoint behaves byte-for-byte like
// the historical single-tenant daemon. With -catalog it serves a
// multi-tenant manifest instead: one shard per (tenant, collection)
// entry, each with its own synopsis generations, caches, accuracy
// monitor, and shadow-sampling budget.
//
// Usage:
//
//	xcluster build -bstr 10240 -bval 51200 -o syn.bin doc.xml
//	xclusterd -syn syn.bin -addr :8080
//	xclusterd -catalog manifest.json -addr :8080
//
//	curl -s localhost:8080/estimate -d '{"queries":["//paper[year>2000]/title"]}'
//	curl -s localhost:8080/estimate -d '{"tenant":"acme","collection":"docs","queries":["//paper/title"]}'
//	curl -s localhost:8080/estimate -d '{"tenant":"acme","queries":["//paper/title"]}'  # scatter-gather
//	curl -s localhost:8080/feedback -d '{"feedback":[{"query":"//paper/title","true":42}]}'
//	curl -s localhost:8080/metrics        # Prometheus text format (tenant/collection labels)
//	curl -s localhost:8080/stats          # JSON counters + percentiles (?tenant=&collection=)
//	curl -s localhost:8080/debug/slowlog  # per-shard ring buffer; /debug/slowlog/all merges shards
//	curl -s localhost:8080/debug/traces   # recent + slowest request trace trees, correlated by X-Request-ID
//	curl -s localhost:8080/debug/slo      # per-tenant SLO reports: multi-window error-budget burn rates
//	curl -s localhost:8080/debug/workload # query-shape analytics, class pain scores, synopsis coverage
//	curl -s 'localhost:8080/admin/workload/export?tenant=acme&collection=docs'  # versioned WorkloadProfile artifact
//	curl -s localhost:8080/readyz         # 503 before the first shard attaches and while draining
//	curl -s localhost:8080/debug/accuracy # per-class estimation error + drift flags
//	curl -s localhost:8080/debug/synopsis # clusters, budget split, generation, rebuild status
//	curl -s localhost:8080/admin/catalog  # attached shards
//	curl -s -X POST localhost:8080/admin/catalog/attach -d @shard.json
//	curl -s -X POST localhost:8080/admin/catalog/detach -d '{"tenant":"acme","collection":"docs"}'
//	curl -s 'localhost:8080/admin/catalog/route?tenant=acme&key=doc-17'
//	curl -s -X POST localhost:8080/admin/reload   # hot swap: re-read the shard's synopsis
//	curl -s -X POST localhost:8080/admin/rebuild -d '{"struct_budget":20480}'
//	curl -s localhost:8080/buildinfo
//	curl -s localhost:8080/synopsis
//
// Manifest paths (synopsis, document) are resolved relative to the
// manifest file's directory, so a manifest can travel with its
// artifacts. Per-shard settings (document, shadow sampling, rebuild
// budgets, cache sizes) come from the manifest in catalog mode;
// server-wide flags (-timeout, -slowquery, -cache/-plancache defaults)
// apply to every shard.
//
// Each served synopsis is a hot-swappable generation. SIGHUP or POST
// /admin/reload re-reads the shard's synopsis and swaps it in with zero
// downtime (SIGHUP reloads every attached shard). With a resident
// document, POST /admin/rebuild reconstructs a shard's synopsis in the
// background and rebuild_on_drift triggers that automatically when the
// shard's accuracy monitor flags drift. Shadow sampling re-runs a
// sampled fraction of a shard's estimates through the exact evaluator
// on that shard's private worker budget.
//
// Logs are structured JSON on stderr (log/slog); synopsis lifecycle
// transitions (reloads, rebuilds, swaps) are logged at info with the
// owning shard. The server shuts down gracefully on SIGINT/SIGTERM: it
// stops accepting, drains every shard within the -drain deadline, and
// flushes the slow-query logs into the structured log before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"xcluster"
	"xcluster/internal/accuracy"
	"xcluster/internal/catalog"
	"xcluster/internal/core"
	"xcluster/internal/obs"
	"xcluster/internal/service"
	"xcluster/internal/xmltree"
)

// loadSynopsis reads and decodes a synopsis file.
func loadSynopsis(path string) (*core.Synopsis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xcluster.ReadSynopsis(f)
}

// loadDocument reads and parses an XML document file.
func loadDocument(path string) (*xmltree.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xcluster.ParseXML(f)
}

// daemonManifest produces the catalog manifest the daemon serves: the
// file named by -catalog, or a synthesized one-shard manifest carrying
// the single-synopsis flags. baseDir is the directory manifest-relative
// synopsis/document paths resolve against.
func daemonManifest(cfg *config) (m *catalog.Manifest, baseDir string, err error) {
	if cfg.catalogPath != "" {
		m, err = catalog.LoadManifestFile(cfg.catalogPath)
		if err != nil {
			return nil, "", err
		}
		return m, filepath.Dir(cfg.catalogPath), nil
	}
	// Single-synopsis mode is the same machinery with one implicit
	// shard: flags map onto the spec, and the shard is the default so
	// unaddressed requests (and /metrics series) look exactly like the
	// historical single-tenant daemon.
	m = &catalog.Manifest{
		DefaultTenant:     "default",
		DefaultCollection: "main",
		Shards: []catalog.ShardSpec{{
			Tenant:           "default",
			Collection:       "main",
			Synopsis:         cfg.synPath,
			Document:         cfg.docPath,
			StructBudget:     cfg.bstr,
			ValueBudget:      cfg.bval,
			ShadowRate:       cfg.shadowRate,
			ShadowWorkers:    cfg.shadowWorkers,
			ShadowDeadlineMS: int(cfg.shadowDeadline / time.Millisecond),
			RebuildOnDrift:   cfg.rebuildOnDrift,
			AdaptiveBudget:   cfg.adaptiveBudget,
		}},
	}
	if err := m.Validate(); err != nil {
		return nil, "", err
	}
	return m, "", nil
}

// resolvePath resolves a manifest-relative path against the manifest's
// directory; absolute paths and the single-synopsis mode pass through.
func resolvePath(baseDir, path string) string {
	if baseDir == "" || path == "" || filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(baseDir, path)
}

// Server timeouts. A request must arrive in full within readTimeout
// (its headers within readHeaderTimeout), and an idle keep-alive
// connection is closed after idleTimeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer returns the daemon's HTTP server for one listener. It sets
// no WriteTimeout: a synchronous POST /admin/rebuild answers only after
// the rebuild, which runs for seconds, and a write deadline would cut
// its response off.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	if cfg.version {
		fmt.Println(service.ReadBuildInfo())
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(cfg.logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "xclusterd: bad -log-level %q: %v\n", cfg.logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	m, baseDir, err := daemonManifest(cfg)
	if err != nil {
		fatal("loading catalog manifest", err)
	}
	defKey, _ := m.DefaultKey()

	cat, err := catalog.New(catalog.Config{
		Loader: func(ctx context.Context, spec catalog.ShardSpec) (*core.Synopsis, *xmltree.Tree, error) {
			syn, err := loadSynopsis(resolvePath(baseDir, spec.Synopsis))
			if err != nil {
				return nil, nil, err
			}
			var tree *xmltree.Tree
			if spec.Document != "" {
				if tree, err = loadDocument(resolvePath(baseDir, spec.Document)); err != nil {
					return nil, nil, err
				}
			}
			return syn, tree, nil
		},
		// Server-wide flags apply to every shard; per-shard manifest
		// settings (cache sizes, shadow budgets) are layered on top by
		// the catalog and win where both are set.
		ShardOptions: func(spec catalog.ShardSpec) []service.Option {
			shard := spec.Key().String()
			opts := []service.Option{
				service.WithTimeout(cfg.timeout),
				service.WithSlowQueryLog(cfg.slowQ, cfg.slowCap),
				service.WithAccuracy(accuracy.WithOnDrift(func(ev accuracy.DriftEvent) {
					logger.Warn("accuracy drift",
						"shard", shard,
						"class", ev.Class.String(),
						"recent_avg_rel_error", ev.Recent,
						"baseline_avg_rel_error", ev.Baseline,
						"ratio", ev.Ratio,
					)
				})),
				service.WithOnSwap(func(ev service.SwapEvent) {
					args := []any{
						"shard", shard,
						"old_generation", ev.OldGeneration,
						"new_generation", ev.NewGeneration,
						"reason", ev.Reason,
						"nodes", ev.Nodes,
						"total_bytes", ev.TotalBytes,
						"duration", ev.Duration.String(),
					}
					if ev.Build != nil {
						args = append(args,
							"build_workers", ev.Build.Workers,
							"merges", ev.Build.Merges,
							"pairs_evaluated", ev.Build.PairsEvaluated,
							"merge_seconds", ev.Build.MergeSeconds,
							"value_seconds", ev.Build.ValueSeconds,
						)
					}
					logger.Info("synopsis swapped", args...)
				}),
			}
			if cfg.cache != 0 {
				opts = append(opts, service.WithCacheCapacity(cfg.cache))
			}
			if cfg.planCap != 0 {
				opts = append(opts, service.WithPlanCacheCapacity(cfg.planCap))
			}
			if cfg.buildWorkers > 0 {
				opts = append(opts, service.WithBuildWorkers(cfg.buildWorkers))
			}
			if cfg.workloadCap != 0 {
				opts = append(opts, service.WithWorkloadProfile(cfg.workloadCap))
			}
			// Server-wide SLO defaults; a shard's manifest objectives are
			// appended after these by the catalog and win.
			slo := obs.SLOConfig{
				Availability:     cfg.sloAvailability,
				LatencyObjective: cfg.sloLatency,
				LatencyTarget:    cfg.sloLatencyTarget,
			}
			if slo.Enabled() {
				opts = append(opts, service.WithSLO(slo))
			}
			return opts
		},
		ScatterWorkers: m.ScatterWorkers,
		DefaultKey:     defKey,
		// Only the synthesized single-synopsis catalog keeps unlabeled
		// metrics: a converted deployment's /metrics stays
		// byte-compatible. Real manifests label every shard's series.
		UnlabeledDefault: cfg.catalogPath == "",
	})
	if err != nil {
		fatal("creating catalog", err)
	}
	if err := cat.AttachManifest(context.Background(), m); err != nil {
		fatal("attaching shards", err)
	}

	bi := service.ReadBuildInfo()
	for _, info := range cat.List() {
		logger.Info("shard attached",
			"shard", info.Tenant+"/"+info.Collection,
			"clusters", info.Clusters,
			"bytes", info.Bytes,
			"generation", info.Generation,
		)
	}
	logger.Info("serving",
		"addr", cfg.addr,
		"shards", len(cat.List()),
		"tenants", len(cat.Tenants()),
		"slowquery_threshold", cfg.slowQ.String(),
		"go_version", bi.GoVersion,
		"vcs_revision", bi.Revision,
	)

	if cfg.pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := newServer(cfg.pprofAddr, pprofMux)
		logger.Info("pprof listening", "addr", cfg.pprofAddr)
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "error", err)
			}
		}()
	}

	// SIGHUP = hot reload: every shard re-reads its synopsis and swaps,
	// the classic "new artifact written over the served file" workflow,
	// fleet-wide.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			for _, info := range cat.List() {
				sh, err := cat.Shard(info.Tenant, info.Collection)
				if err != nil {
					continue // detached or draining since the snapshot
				}
				logger.Info("SIGHUP: reloading synopsis", "shard", info.Tenant+"/"+info.Collection)
				if _, err := sh.Service().Reload(context.Background()); err != nil {
					logger.Error("reload failed; still serving the previous generation",
						"shard", info.Tenant+"/"+info.Collection, "error", err)
				}
			}
		}
	}()

	srv := newServer(cfg.addr, cat.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	select {
	case err := <-done:
		fatal("server", err)
	case <-ctx.Done():
		stop()
		// Snapshot the shards before draining: after DrainAll their
		// services are closed.
		var served, failed, slow uint64
		type shardRef struct {
			key string
			svc *service.Service
		}
		var refs []shardRef
		for _, info := range cat.List() {
			sh, err := cat.Shard(info.Tenant, info.Collection)
			if err != nil {
				continue
			}
			st := sh.Service().Stats()
			served += st.Served
			failed += st.Failed
			slow += st.SlowQueries
			refs = append(refs, shardRef{key: info.Tenant + "/" + info.Collection, svc: sh.Service()})
		}
		logger.Info("shutting down",
			"served", served,
			"failed", failed,
			"slow_queries", slow,
			"shards", len(refs),
			"drain_deadline", cfg.drain.String(),
		)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		// Flip readiness first: GET /readyz answers 503 while in-flight
		// handlers finish, so load balancers stop routing before the
		// listener closes.
		cat.BeginShutdown()
		// Stop accepting and wait for in-flight HTTP handlers, then
		// drain every shard's estimation work (in-flight estimates and
		// batches, shadow pools), all under the one -drain deadline.
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown incomplete", "error", err)
		}
		// Flush the slow-query logs into the structured log so captured
		// queries survive the process; handlers are done, services not
		// yet closed.
		for _, ref := range refs {
			for _, e := range ref.svc.SlowLog().Snapshot() {
				logger.Warn("slow query",
					"shard", ref.key,
					"request_id", e.RequestID,
					"shape_id", e.ShapeID,
					"query", e.Query,
					"plan", e.Plan,
					"estimate", e.Estimate,
					"total", time.Duration(e.TotalNanos).String(),
					"time", e.Time,
				)
			}
		}
		if err := cat.DrainAll(shutdownCtx); err != nil {
			logger.Error("drain incomplete", "error", err)
		}
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("server", err)
		}
		logger.Info("stopped")
	}
}
