package core

import (
	"fmt"

	"xcluster/internal/xmltree"
)

// Provenance records how a BudgetPlan was chosen.
type Provenance string

const (
	// ProvenanceStatic marks a plan synthesized from explicitly
	// configured budgets (the classic Bstr/Bval pair).
	ProvenanceStatic Provenance = "static"
	// ProvenanceAuto marks a plan chosen by the sample-workload search
	// of AutoAllocate (the paper's Section 4.3 sketch).
	ProvenanceAuto Provenance = "auto"
	// ProvenanceWorkload marks a plan chosen by the same search,
	// scored on the live WorkloadProfile's query shapes
	// (internal/budget).
	ProvenanceWorkload Provenance = "workload"
)

// BudgetPlan is a first-class byte-budget decision: how one total
// budget splits between structure and values, where the split came
// from (Provenance), and — for workload-derived plans — the
// fingerprint of the WorkloadProfile that justified it.
//
// The builder enforces the paper's two-budget contract: StructBytes
// bounds nodes+edges (the merge phase) and ValueBytes bounds value
// summaries (the compression phase). A plan is exactly equivalent to
// the legacy two-int configuration: the builder takes the same code
// path and produces bit-identical output (enforced by differential
// test).
type BudgetPlan struct {
	// TotalBytes is the unified budget the plan splits
	// (StructBytes + ValueBytes).
	TotalBytes int `json:"total_bytes"`
	// StructBytes is Bstr: the byte budget for nodes, edges and edge
	// counts.
	StructBytes int `json:"struct_bytes"`
	// ValueBytes is Bval: the byte budget for value summaries.
	ValueBytes int `json:"value_bytes"`

	// Provenance tells where the split came from: static, auto, or
	// workload.
	Provenance Provenance `json:"provenance,omitempty"`
	// WorkloadFingerprint is the fingerprint of the WorkloadProfile a
	// workload-derived plan was computed from (empty otherwise).
	WorkloadFingerprint string `json:"workload_fingerprint,omitempty"`
}

// PlanFromBudgets synthesizes a static plan from the legacy Bstr/Bval
// pair; a build under this plan is bit-identical to one under the raw
// ints.
func PlanFromBudgets(structBudget, valueBudget int) BudgetPlan {
	return BudgetPlan{
		TotalBytes:  structBudget + valueBudget,
		StructBytes: structBudget,
		ValueBytes:  valueBudget,
		Provenance:  ProvenanceStatic,
	}
}

// IsZero reports whether the plan carries no decision at all.
func (p BudgetPlan) IsZero() bool { return p == BudgetPlan{} }

// StructBudget is the Bstr the plan assigns (nodes + edges).
func (p BudgetPlan) StructBudget() int { return p.StructBytes }

// ValueBudget is the Bval the plan assigns (all value summaries).
func (p BudgetPlan) ValueBudget() int { return p.ValueBytes }

// ByteSplit is a synopsis's realized byte split by storage component:
// the structural charge of its nodes and edges, and the value charge
// by summary kind (numeric histograms, pruned suffix trees, end-biased
// term histograms). GET /debug/synopsis, GET /debug/budget, swap
// events and the workload coverage report all render this one
// measurement.
type ByteSplit struct {
	NodeBytes      int `json:"node_bytes"`
	EdgeBytes      int `json:"edge_bytes"`
	HistogramBytes int `json:"histogram_bytes"`
	PSTBytes       int `json:"pst_bytes"`
	TermHistBytes  int `json:"termhist_bytes"`
}

// Split measures the synopsis's ByteSplit.
func (s *Synopsis) Split() ByteSplit {
	b := ByteSplit{
		NodeBytes: s.NumNodes() * NodeBytes,
		EdgeBytes: s.NumEdges() * EdgeBytes,
	}
	for _, n := range s.nodes {
		if n.VSum == nil {
			continue
		}
		switch n.VSum.Type() {
		case xmltree.TypeNumeric:
			b.HistogramBytes += n.VSum.SizeBytes()
		case xmltree.TypeString:
			b.PSTBytes += n.VSum.SizeBytes()
		case xmltree.TypeText:
			b.TermHistBytes += n.VSum.SizeBytes()
		}
	}
	return b
}

// Normalize fills derivable fields and validates consistency: the
// total is derived from, or checked against, the group sums. It
// returns the completed plan or an error naming the inconsistency.
func (p BudgetPlan) Normalize() (BudgetPlan, error) {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"total_bytes", p.TotalBytes}, {"struct_bytes", p.StructBytes}, {"value_bytes", p.ValueBytes},
	} {
		if f.v < 0 {
			return p, fmt.Errorf("core: budget plan: negative %s %d", f.name, f.v)
		}
	}
	if s := p.StructBytes + p.ValueBytes; p.TotalBytes == 0 {
		p.TotalBytes = s
	} else if p.TotalBytes != s {
		return p, fmt.Errorf("core: budget plan: total_bytes %d != struct_bytes+value_bytes %d", p.TotalBytes, s)
	}
	if p.Provenance == "" {
		p.Provenance = ProvenanceStatic
	}
	return p, nil
}

// String renders the plan on one line for logs and debug endpoints.
func (p BudgetPlan) String() string {
	if p.IsZero() {
		return "no plan"
	}
	s := fmt.Sprintf("%s total=%d bstr=%d bval=%d", p.Provenance, p.TotalBytes, p.StructBytes, p.ValueBytes)
	if p.WorkloadFingerprint != "" {
		s += " workload=" + p.WorkloadFingerprint
	}
	return s
}
