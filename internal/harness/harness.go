// Package harness drives the experimental study of Section 6: it
// materializes the two data sets, builds reference synopses and
// workloads, sweeps XClusterBuild over structural budgets with a fixed
// value budget, and produces the rows of every table and figure in the
// paper (Tables 1-2, Figures 8a/8b/9), plus the negative-workload check
// reported in prose and the ablations called out in DESIGN.md.
package harness

import (
	"bytes"
	"fmt"
	"math"

	"xcluster/internal/core"
	"xcluster/internal/datagen"
	"xcluster/internal/vsum"
	"xcluster/internal/workload"
	"xcluster/internal/xmltree"
)

// Config scales the study. The zero value is upgraded to a laptop-scale
// run (a few seconds per budget point); Scale 16-20 approximates the
// paper's document sizes.
type Config struct {
	// Scale multiplies the generators' default entity counts.
	Scale float64
	// Seed drives data and workload generation.
	Seed int64
	// PerClass is the number of workload queries per class (Struct,
	// Numeric, String, Text).
	PerClass int
	// PSTDepth is the substring length retained by detailed PSTs.
	PSTDepth int
	// MaxSummaryBytes caps each detailed reference value summary,
	// matching the compact-but-detailed reference summaries of the
	// paper (its references average a few hundred bytes per value node).
	MaxSummaryBytes int
	// Points is the number of structural-budget points of the Figure 8
	// sweep (>= 2; the first is 0, the last is the full reference).
	Points int
	// ValueFrac sets the fixed value budget as a fraction of the
	// reference synopsis's value bytes (the paper fixes 150KB against
	// reference sizes of 473-890KB, roughly 1/3).
	ValueFrac float64
	// MaxStructFrac caps the Figure 8 sweep at this fraction of the
	// reference synopsis's structural bytes. The paper sweeps 0-50KB
	// against references of hundreds of KB — the low-budget regime where
	// structure is scarce; sweeping all the way to the full reference
	// instead starves the fixed value budget across thousands of
	// detailed summaries.
	MaxStructFrac float64
}

// datasetDefaults holds the per-dataset budget balance. Mirroring the
// paper's methodology ("we have empirically verified that these settings
// provide a good balance between structural and value-based
// summarization for the two data sets"), the sweep range and fixed value
// fraction were tuned per data set: past these ranges the fixed value
// budget starves across the fine-grained clusters and all curves flatten
// or invert.
var datasetDefaults = map[string]struct {
	valueFrac     float64
	maxStructFrac float64
}{
	"IMDB":  {valueFrac: 1.0 / 3, maxStructFrac: 0.06},
	"XMark": {valueFrac: 0.6, maxStructFrac: 0.25},
}

// forDataset fills dataset-specific defaults for unset budget fields,
// then the global defaults.
func (c Config) forDataset(name string) Config {
	if d, ok := datasetDefaults[name]; ok {
		if c.ValueFrac == 0 {
			c.ValueFrac = d.valueFrac
		}
		if c.MaxStructFrac == 0 {
			c.MaxStructFrac = d.maxStructFrac
		}
	}
	return c.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.PerClass == 0 {
		c.PerClass = 50
	}
	if c.PSTDepth == 0 {
		c.PSTDepth = 5
	}
	if c.MaxSummaryBytes == 0 {
		// The per-summary detail cap must grow with the data (larger
		// clusters have richer distributions), but sub-linearly —
		// distinct values grow slower than occurrences.
		c.MaxSummaryBytes = int(2048 * math.Sqrt(math.Max(1, c.Scale)))
	}
	if c.Points == 0 {
		c.Points = 6
	}
	if c.ValueFrac == 0 {
		c.ValueFrac = 1.0 / 3
	}
	if c.MaxStructFrac == 0 {
		c.MaxStructFrac = 0.25
	}
	return c
}

// Dataset bundles a generated document with everything the experiments
// need: its reference synopsis, value paths, workloads, and sizes.
type Dataset struct {
	Name       string
	Tree       *xmltree.Tree
	ValuePaths []string
	Ref        *core.Synopsis
	Workload   *workload.Workload
	Negative   *workload.Workload
	XMLBytes   int
}

// NewDataset materializes one of the two named data sets ("IMDB" or
// "XMark") under the config.
func NewDataset(name string, cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	d := &Dataset{Name: name}
	switch name {
	case "IMDB":
		d.Tree = datagen.IMDB(datagen.IMDBConfig{Seed: cfg.Seed, Scale: cfg.Scale})
		d.ValuePaths = datagen.IMDBValuePaths()
	case "XMark":
		d.Tree = datagen.XMark(datagen.XMarkConfig{Seed: cfg.Seed, Scale: cfg.Scale})
		d.ValuePaths = datagen.XMarkValuePaths()
	default:
		return nil, fmt.Errorf("harness: unknown dataset %q", name)
	}
	var err error
	d.Ref, err = core.BuildReference(d.Tree, core.ReferenceOptions{
		ValuePaths: d.ValuePaths,
		Detail: vsum.BuildOptions{
			PSTDepth:        cfg.PSTDepth,
			MaxSummaryBytes: cfg.MaxSummaryBytes,
		},
	})
	if err != nil {
		return nil, err
	}
	d.Workload, err = workload.Generate(d.Tree, workload.Options{
		Seed: cfg.Seed + 1, PerClass: cfg.PerClass, ValuePaths: d.ValuePaths,
	})
	if err != nil {
		return nil, err
	}
	d.Negative, err = workload.Generate(d.Tree, workload.Options{
		Seed: cfg.Seed + 2, PerClass: cfg.PerClass / 2, ValuePaths: d.ValuePaths, Negative: true,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := xmltree.Write(&buf, d.Tree); err != nil {
		return nil, err
	}
	d.XMLBytes = buf.Len()
	return d, nil
}

// DatasetNames lists the study's data sets in report order.
func DatasetNames() []string { return []string{"IMDB", "XMark"} }

// ValueBudget returns the fixed Bval for the dataset under the config.
func (cfg Config) ValueBudget(d *Dataset) int {
	c := cfg.forDataset(d.Name)
	return int(float64(d.Ref.ValueBytes()) * c.ValueFrac)
}

// StructBudgets returns the Figure 8 sweep of Bstr values: Points values
// from 0 to MaxStructFrac of the reference structural size.
func (cfg Config) StructBudgets(d *Dataset) []int {
	c := cfg.forDataset(d.Name)
	out := make([]int, c.Points)
	limit := int(float64(d.Ref.StructBytes()) * c.MaxStructFrac)
	for i := range out {
		out[i] = limit * i / (c.Points - 1)
	}
	return out
}

// BuildAt compresses the dataset's reference synopsis to the given
// structural budget with the config's fixed value budget.
func (cfg Config) BuildAt(d *Dataset, structBudget int) (*core.Synopsis, error) {
	return core.XClusterBuild(d.Ref, core.BuildOptions{
		StructBudget: structBudget,
		ValueBudget:  cfg.ValueBudget(d),
	})
}
