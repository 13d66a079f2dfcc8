package core

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"xcluster/internal/xmltree"
)

// Provenance records how a synopsis's struct/value budget split was
// chosen.
type Provenance string

const (
	// ProvenanceStatic marks explicitly configured budgets (the classic
	// Bstr/Bval pair).
	ProvenanceStatic Provenance = "static"
	// ProvenanceAuto marks a split chosen by the sample-workload search
	// of AutoAllocate (the paper's Section 4.3 sketch).
	ProvenanceAuto Provenance = "auto"
	// ProvenanceWorkload marks a split chosen by the same search,
	// scored on the live WorkloadProfile's query shapes
	// (internal/budget).
	ProvenanceWorkload Provenance = "workload"
)

// Fingerprint is a synopsis's build identity: which document it
// summarizes (a structural hash), under which budgets and build
// options (the budget split's provenance included), and in which
// rebuild generation. It is stamped by BuildReference (doc hash) and
// XClusterBuildContext (budgets, build time), carried through Clone,
// serialized in the versioned codec header, and reported by the
// serving layer so operators can tell at a glance whether the resident
// synopsis matches the resident document.
//
// The zero Fingerprint marks a synopsis of unknown provenance (built
// before fingerprinting, or decoded from a version-1 file).
type Fingerprint struct {
	// DocHash is an FNV-64a hash of the source document's structure and
	// values (labels, types, numeric/string values, term vectors, in
	// preorder). Two documents with equal hashes are, for synopsis
	// purposes, the same document.
	DocHash uint64 `json:"doc_hash,omitempty"`
	// StructBudget and ValueBudget are the byte budgets the synopsis
	// was compressed under (0: uncompressed reference).
	StructBudget int `json:"struct_budget,omitempty"`
	ValueBudget  int `json:"value_budget,omitempty"`
	// BuildOptions is a canonical one-line rendering of the non-default
	// build options, for operator display only.
	BuildOptions string `json:"build_options,omitempty"`
	// Generation counts rebuilds of this artifact: 0 for an initial
	// build, incremented by the serving layer each time it swaps in a
	// rebuilt synopsis.
	Generation uint64 `json:"generation"`
	// BuiltAtUnix is the build completion time (Unix seconds; 0 when
	// unknown).
	BuiltAtUnix int64 `json:"built_at_unix,omitempty"`
	// BuildNanos is the wall time of the build (reference construction
	// excluded for XClusterBuildContext; 0 when unknown).
	BuildNanos int64 `json:"build_nanos,omitempty"`
	// Provenance tells where the budget split came from (static,
	// auto or workload; empty when unknown: the reference synopsis,
	// and artifacts decoded from v1/v2 files). WorkloadFingerprint is
	// the fingerprint of the WorkloadProfile a workload split was
	// searched on (empty otherwise). Both are serialized in version-3
	// files.
	Provenance          Provenance `json:"provenance,omitempty"`
	WorkloadFingerprint string     `json:"workload_fingerprint,omitempty"`
}

// IsZero reports whether the fingerprint carries no provenance (legacy
// artifact).
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// String renders the fingerprint on one line for logs and -version
// style output.
func (f Fingerprint) String() string {
	if f.IsZero() {
		return "unfingerprinted (pre-v2 artifact)"
	}
	s := fmt.Sprintf("doc=%016x gen=%d bstr=%d bval=%d", f.DocHash, f.Generation, f.StructBudget, f.ValueBudget)
	if f.Provenance != "" && f.Provenance != ProvenanceStatic {
		s += " provenance=" + string(f.Provenance)
		if f.WorkloadFingerprint != "" {
			s += " workload=" + f.WorkloadFingerprint
		}
	}
	if f.BuiltAtUnix != 0 {
		s += " built=" + time.Unix(f.BuiltAtUnix, 0).UTC().Format(time.RFC3339)
	}
	if f.BuildNanos != 0 {
		s += " build_time=" + time.Duration(f.BuildNanos).String()
	}
	if f.BuildOptions != "" {
		s += " opts=" + f.BuildOptions
	}
	return s
}

// Fingerprint returns the synopsis's build identity (zero for legacy
// artifacts).
func (s *Synopsis) Fingerprint() Fingerprint { return s.fp }

// SetFingerprint replaces the synopsis's build identity. Like all
// synopsis mutation it must happen before the synopsis is shared.
func (s *Synopsis) SetFingerprint(f Fingerprint) { s.fp = f }

// DocHash computes the Fingerprint.DocHash of a document: FNV-64a over
// a canonical preorder walk of labels, value types, and values. The
// walk visits every element once, so hashing costs one linear pass.
func DocHash(t *xmltree.Tree) uint64 {
	h := fnv.New64a()
	var num [20]byte
	writeInt := func(v int) {
		b := strconv.AppendInt(num[:0], int64(v), 10)
		h.Write(b)
		h.Write([]byte{'|'})
	}
	for _, n := range t.Nodes() {
		h.Write([]byte(n.Label))
		h.Write([]byte{0, byte(n.Type)})
		switch n.Type {
		case xmltree.TypeNumeric:
			writeInt(n.Num)
		case xmltree.TypeString:
			h.Write([]byte(n.Str))
			h.Write([]byte{0})
		case xmltree.TypeText:
			for _, term := range n.Terms {
				writeInt(term)
			}
		}
		writeInt(len(n.Children))
	}
	return h.Sum64()
}
