package core

import "xcluster/internal/xmltree"

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
