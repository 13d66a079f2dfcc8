package catalog

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"xcluster/internal/obs"
	"xcluster/internal/query"
	"xcluster/internal/service"
)

// DefaultScatterWorkers bounds the scatter-gather worker pool when the
// config leaves it unset.
const DefaultScatterWorkers = 8

// Per-shard failure reasons in ScatterResult.Errors.
const (
	ReasonDeadline = "deadline" // shard did not answer before the context expired
	ReasonDraining = "draining" // shard was draining for detach
	ReasonError    = "error"    // shard answered with an error
)

// ShardError reports one shard's failure within a scatter.
type ShardError struct {
	Collection string `json:"collection"`
	Reason     string `json:"reason"`
	Error      string `json:"error"`
}

// ScatterResult is the outcome of a scatter-gather estimate: aggregate
// selectivities over the collections that answered, plus an explicit
// account of those that did not. Partial coverage is visible, never
// silent — callers see exactly which collections are missing from the
// aggregate.
type ScatterResult struct {
	// Selectivities[i] sums query i's selectivity over the answering
	// collections. Shards hold disjoint slices of the tenant's corpus,
	// so the per-shard estimates add.
	Selectivities []float64
	// Collections lists the collections included in the aggregate,
	// sorted.
	Collections []string
	// Errors lists the collections excluded from it, with reasons,
	// sorted by collection.
	Errors []ShardError
}

// Complete reports whether every shard answered.
func (r *ScatterResult) Complete() bool { return len(r.Errors) == 0 }

// ScatterEstimate fans qs out to every collection of the tenant on a
// bounded worker pool (ScatterWorkers goroutines, one shard's batch at
// a time each) and sums the per-shard selectivities. The gather
// is deadline-aware: when ctx expires, shards that have not answered
// are reported with reason "deadline" and the partial aggregate over
// the shards that did answer is returned — a stuck shard delays the
// response only until the deadline, and its late result is discarded
// without blocking any worker (the gather channel is buffered for the
// full fan-out).
//
// The call errors only when the tenant is unknown or no shard answered;
// otherwise partial failure is expressed in ScatterResult.Errors.
//
// Each query is canonicalized once here, not once per shard.
func (c *Catalog) ScatterEstimate(ctx context.Context, tenant string, qs []*query.Query) (*ScatterResult, error) {
	shards, err := c.tenantShards(tenant)
	if err != nil {
		return nil, err
	}
	canonicals := make([]string, len(qs))
	for i, q := range qs {
		canonicals[i] = q.String()
	}
	return c.scatter(ctx, tenant, shards, qs, canonicals)
}

// scatter is ScatterEstimate over the tenant's shards (tenantShards),
// with each query's canonical string, which every shard's batch reuses.
func (c *Catalog) scatter(ctx context.Context, tenant string, shards []*Shard, qs []*query.Query, canonicals []string) (*ScatterResult, error) {
	res := &ScatterResult{
		Selectivities: make([]float64, len(qs)),
		Collections:   make([]string, 0, len(shards)),
	}
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.Grow(len(shards))
	}

	type answer struct {
		idx  int
		sels []float64
		err  error
		done bool
	}
	// Buffered for the full fan-out: a worker finishing after the
	// deadline still completes its send and exits.
	answers := make(chan answer, len(shards))
	// Workers claim shards by index and stop claiming once ctx ends, so
	// a shard not started before the deadline never runs.
	var next atomic.Int64
	workers := min(c.cfg.ScatterWorkers, len(shards))
	// Workers are not waited on: a straggler past the deadline finishes
	// its estimate, completes its buffered send, and exits on its own.
	for w := 0; w < workers; w++ {
		go func() {
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(shards) || ctx.Err() != nil {
					return
				}
				sh := shards[idx]
				if sh.draining.Load() {
					answers <- answer{idx: idx, err: service.ErrShardDraining, done: true}
					continue
				}
				// One child span per shard under the request's root, carrying
				// the same request ID; the shard's pipeline attaches its
				// per-estimate traces beneath it. Stragglers finishing after
				// the gather gave up still record safely — spans lock
				// per-node, and a snapshot copies each node under its lock.
				sctx := ctx
				var child *obs.Span
				if sp := obs.SpanFrom(ctx); sp != nil {
					child, sctx = sp.StartChild(ctx, "shard")
					child.SetShard(sh.key.Tenant, sh.key.Collection)
				}
				sels, err := sh.estimateBatch(sctx, qs, canonicals)
				if child != nil {
					child.FinishErr(err)
				}
				answers <- answer{idx: idx, sels: sels, err: err, done: true}
			}
		}()
	}

	// Gather until every shard reported or the deadline fired.
	answered := make([]answer, len(shards))
	pending := len(shards)
gather:
	for pending > 0 {
		select {
		case a := <-answers:
			answered[a.idx] = a
			pending--
		case <-ctx.Done():
			break gather
		}
	}

	for i, sh := range shards {
		a := &answered[i]
		switch {
		case !a.done:
			res.Errors = append(res.Errors, ShardError{
				Collection: sh.key.Collection,
				Reason:     ReasonDeadline,
				Error:      ctx.Err().Error(),
			})
			c.shardErrTotal[ReasonDeadline].Inc()
		case a.err != nil:
			res.Errors = append(res.Errors, ShardError{
				Collection: sh.key.Collection,
				Reason:     scatterReason(a.err),
				Error:      a.err.Error(),
			})
			c.shardErrTotal[scatterReason(a.err)].Inc()
		default:
			res.Collections = append(res.Collections, sh.key.Collection)
			for qi, sel := range a.sels {
				res.Selectivities[qi] += sel
			}
		}
	}
	// shards (and therefore Errors/Collections) are already sorted by
	// collection, so the result is deterministic for a given outcome.

	switch {
	case len(res.Collections) == 0:
		c.scatterTotal["failed"].Inc()
		// Surface the first shard failure as the call error so the HTTP
		// layer can map draining/deadline to proper statuses.
		first := res.Errors[0]
		return res, fmt.Errorf("catalog: scatter for tenant %q failed on all %d collections (first: %s: %s)",
			tenant, len(shards), first.Collection, first.Error)
	case len(res.Errors) > 0:
		c.scatterTotal["partial"].Inc()
	default:
		c.scatterTotal["ok"].Inc()
	}
	return res, nil
}

// scatterReason classifies a shard error for reporting and metrics.
func scatterReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ReasonDeadline
	case errors.Is(err, service.ErrShardDraining):
		return ReasonDraining
	default:
		return ReasonError
	}
}
