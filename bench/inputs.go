package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"xcluster"
	"xcluster/internal/catalog"
	"xcluster/internal/core"
	"xcluster/internal/datagen"
	"xcluster/internal/query"
	"xcluster/internal/workload"
	"xcluster/internal/xmltree"
)

// tenant is the one tenant every generated manifest declares; its
// collections are c0, c1, ... and c0 is the default shard, so
// unaddressed point requests land there.
const tenant = "bench"

// spec describes one workload. The reasons behind each choice are in
// README.md; in short, the four cover a result-cache-resident stream,
// a stream far larger than both estimator caches, a scatter-gather
// batch stream, and reads beside back-to-back rebuilds.
type spec struct {
	name        string
	dataset     string  // "imdb" or "xmark"
	scale       float64 // datagen scale of each collection
	collections int     // shards of the one tenant (seeds s, s+1, ...)
	// perClass > 0 takes one workload.Generate call's queries as the
	// pool, duplicates included; otherwise the pool is distinct
	// queries, generated in rounds until it holds that many.
	perClass int
	distinct int
	// batch is the queries per request; bodies > 0 pre-draws that many
	// request bodies from the pool, otherwise each pool entry is one
	// request body.
	batch  int
	bodies int
	// rebuild runs back-to-back POST /admin/rebuild beside one read
	// client instead of a second read client.
	rebuild bool
}

var specs = []spec{
	{name: "point_hot", dataset: "imdb", scale: 1, collections: 1, perClass: 50, batch: 1},
	{name: "point_cold", dataset: "xmark", scale: 1, collections: 1, distinct: 4000, batch: 1},
	{name: "batch_scatter", dataset: "imdb", scale: 0.25, collections: 4, distinct: 2000, batch: 32, bodies: 1024},
	{name: "rebuild_under_load", dataset: "imdb", scale: 1, collections: 1, perClass: 50, batch: 1, rebuild: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// collection is one shard's artifacts: the document as written and
// parsed back, the synopsis as served (decoded from the written bytes),
// and the oracle estimator over it.
type collection struct {
	name     string
	docPath  string
	synPath  string
	tree     *xmltree.Tree
	ref      *core.Synopsis
	synBytes []byte
	oracle   *core.Estimator
	budgets  core.BuildOptions

	parseS, referenceS, compressS float64
	stats                         core.BuildStats
}

// inputs is everything a run derives from its seed.
type inputs struct {
	spec     spec
	dir      string
	manifest string
	colls    []*collection // sorted by name, the order scatter sums in
	bodies   [][]byte      // JSON request bodies
	texts    [][]string    // texts[i] are the queries of bodies[i]
	expect   [][]float64   // expect[i] are the answers to bodies[i]
	// perColl holds each query text's oracle answer on each collection.
	perColl map[string][]float64
	pool    int // queries in the pool the bodies draw from
}

// makeInputs generates the workload's documents, synopses, manifest,
// query pool and request bodies under dir, and the oracle answers.
func makeInputs(s spec, seed int64, scale float64, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{spec: s, dir: dir, manifest: filepath.Join(dir, "manifest.json")}
	m := catalog.Manifest{DefaultTenant: tenant, DefaultCollection: "c0"}
	for k := 0; k < s.collections; k++ {
		c, err := makeCollection(s, seed+int64(k), scale, dir, fmt.Sprintf("c%d", k))
		if err != nil {
			return nil, err
		}
		in.colls = append(in.colls, c)
		sp := catalog.ShardSpec{Tenant: tenant, Collection: c.name, Synopsis: filepath.Base(c.synPath)}
		if s.rebuild {
			sp.Document = filepath.Base(c.docPath) // resident, for POST /admin/rebuild
		}
		m.Shards = append(m.Shards, sp)
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.manifest, mb, 0o644); err != nil {
		return nil, err
	}

	pool, err := queryPool(s, in.colls[0].tree, seed)
	if err != nil {
		return nil, err
	}
	in.pool = len(pool)
	return in, in.makeBodies(pool, seed)
}

// makeCollection generates one document and builds its synopsis exactly
// the way POST /admin/rebuild rebuilds it (default reference options,
// budgets carried in the fingerprint), so one oracle stays valid before
// and after every hot swap.
func makeCollection(s spec, seed int64, scale float64, dir, name string) (*collection, error) {
	var t *xmltree.Tree
	switch s.dataset {
	case "imdb":
		t = datagen.IMDB(datagen.IMDBConfig{Seed: seed, Scale: s.scale * scale})
	case "xmark":
		t = datagen.XMark(datagen.XMarkConfig{Seed: seed, Scale: s.scale * scale})
	default:
		return nil, fmt.Errorf("unknown dataset %q", s.dataset)
	}
	var doc bytes.Buffer
	if err := xcluster.WriteXML(&doc, t); err != nil {
		return nil, err
	}
	c := &collection{
		name:    name,
		docPath: filepath.Join(dir, name+".xml"),
		synPath: filepath.Join(dir, name+".syn"),
	}
	if err := os.WriteFile(c.docPath, doc.Bytes(), 0o644); err != nil {
		return nil, err
	}
	t0 := time.Now()
	tree, err := xcluster.ParseXML(bytes.NewReader(doc.Bytes()))
	if err != nil {
		return nil, err
	}
	c.tree = tree
	t1 := time.Now()
	if c.ref, err = core.BuildReference(tree, core.ReferenceOptions{}); err != nil {
		return nil, err
	}
	t2 := time.Now()
	c.budgets = core.BuildOptions{StructBudget: c.ref.StructBytes() / 20, ValueBudget: c.ref.ValueBytes() / 3}
	opts := c.budgets
	opts.Stats = &c.stats
	syn, err := core.XClusterBuild(c.ref, opts)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	c.parseS, c.referenceS, c.compressS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()

	var sb bytes.Buffer
	if err := xcluster.WriteSynopsis(&sb, syn); err != nil {
		return nil, err
	}
	c.synBytes = sb.Bytes()
	if err := os.WriteFile(c.synPath, c.synBytes, 0o644); err != nil {
		return nil, err
	}
	served, err := c.decode()
	if err != nil {
		return nil, err
	}
	c.oracle = core.NewEstimator(served)
	return c, nil
}

// decode returns a fresh copy of the synopsis as the daemon loads it.
func (c *collection) decode() (*core.Synopsis, error) {
	return core.ReadSynopsis(bytes.NewReader(c.synBytes))
}

// queryPool returns the workload's query texts, canonical as
// (*query.Query).String prints them.
func queryPool(s spec, t *xmltree.Tree, seed int64) ([]string, error) {
	paths := datagen.IMDBValuePaths()
	if s.dataset == "xmark" {
		paths = datagen.XMarkValuePaths()
	}
	if s.perClass > 0 {
		w, err := workload.Generate(t, workload.Options{Seed: seed, PerClass: s.perClass, ValuePaths: paths})
		if err != nil {
			return nil, err
		}
		pool := make([]string, len(w.Queries))
		for i, q := range w.Queries {
			pool[i] = q.Q.String()
		}
		return pool, nil
	}
	// The generator repeats itself, so distinct pools take several
	// rounds; small documents run dry first, which only the smoke test's
	// tiny scales hit.
	seen := make(map[string]bool, s.distinct)
	var pool []string
	for round := int64(0); round < 8 && len(pool) < s.distinct; round++ {
		w, err := workload.Generate(t, workload.Options{Seed: seed + round*7919, PerClass: s.distinct / 4, ValuePaths: paths})
		if err != nil {
			return nil, err
		}
		before := len(pool)
		for _, q := range w.Queries {
			text := q.Q.String()
			if !seen[text] && len(pool) < s.distinct {
				seen[text] = true
				pool = append(pool, text)
			}
		}
		if len(pool)-before < s.distinct/100 {
			break // the document yields no more shapes worth a round
		}
	}
	return pool, nil
}

// makeBodies encodes the request bodies and their oracle answers. A
// batch answer is the per-collection sum in sorted collection order,
// the order the catalog's scatter-gather adds in.
func (in *inputs) makeBodies(pool []string, seed int64) error {
	n := len(pool)
	if in.spec.bodies > 0 {
		n = in.spec.bodies
	}
	rng := rand.New(rand.NewSource(seed))
	in.perColl = make(map[string][]float64, len(pool))
	for i := 0; i < n; i++ {
		texts := []string{pool[i]}
		if in.spec.bodies > 0 {
			texts = make([]string, in.spec.batch)
			for j := range texts {
				texts[j] = pool[rng.Intn(len(pool))]
			}
		}
		want := make([]float64, len(texts))
		for j, text := range texts {
			vs, ok := in.perColl[text]
			if !ok {
				var err error
				if vs, err = in.oracle(text); err != nil {
					return err
				}
				in.perColl[text] = vs
			}
			for _, v := range vs {
				want[j] += v
			}
		}
		req := catalog.EstimateRequest{}
		req.Queries = texts
		if in.spec.collections > 1 {
			req.Tenant = tenant
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		in.bodies = append(in.bodies, body)
		in.texts = append(in.texts, texts)
		in.expect = append(in.expect, want)
	}
	return nil
}

// oracle estimates text on every collection's oracle estimator.
func (in *inputs) oracle(text string) ([]float64, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	vs := make([]float64, len(in.colls))
	for k, c := range in.colls {
		if vs[k], err = c.oracle.SelectivityContext(context.Background(), q); err != nil {
			return nil, fmt.Errorf("oracle %s: %q: %w", c.name, text, err)
		}
	}
	return vs, nil
}
