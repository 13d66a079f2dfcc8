package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"xcluster/internal/vsum"
	"xcluster/internal/wire"
	"xcluster/internal/xmltree"
)

// The synopsis file format is versioned through its magic line:
//
//	XCLUSTER1\n  graph + dictionary + value summaries (legacy)
//	XCLUSTER2\n  adds a fingerprint header (doc hash, budgets,
//	             generation, build time) before the v1 body
//	XCLUSTER3\n  extends the header with eight reserved ints, the
//	             budget provenance and the workload fingerprint
//
// The v3 reserved ints are a retired plan record: WriteTo fills the
// first three with (Bstr+Bval, Bstr, Bval) when the provenance is set
// and 0 otherwise, and the other five with 0; ReadSynopsis discards
// all eight, since the budgets already sit in the v2 fields.
//
// WriteTo always writes the current version; ReadSynopsis decodes
// every version it knows and fails with ErrSynopsisVersion on versions
// it does not, so an old daemon fed a newer file reports a clear typed
// error instead of decoding garbage.
var (
	magicV1 = []byte("XCLUSTER1\n")
	magicV2 = []byte("XCLUSTER2\n")
	magicV3 = []byte("XCLUSTER3\n")
)

// reservedSlots is the number of zero v3 header ints after the
// retired plan's (total, Bstr, Bval) triple.
const reservedSlots = 5

// CodecVersion is the synopsis file format version WriteTo produces.
const CodecVersion = 3

// ErrSynopsisVersion reports a synopsis file whose format version this
// build cannot decode. Test with errors.Is.
var ErrSynopsisVersion = errors.New("core: unsupported synopsis format version")

// WriteTo serializes the synopsis (fingerprint header, term dictionary
// and all value summaries) in a compact binary format, so an optimizer
// can load statistics without touching the database. It implements
// io.WriterTo.
func (s *Synopsis) WriteTo(w io.Writer) (int64, error) {
	ww := wire.NewWriter(w)
	ww.Bytes(magicV3)

	// Fingerprint header (v2 fields, then the v3 fields).
	ww.Uint(s.fp.DocHash)
	ww.Int(s.fp.StructBudget)
	ww.Int(s.fp.ValueBudget)
	ww.Uint(s.fp.Generation)
	ww.Int(int(s.fp.BuiltAtUnix))
	ww.Int(int(s.fp.BuildNanos))
	ww.String(s.fp.BuildOptions)
	plan := [3]int{}
	if s.fp.Provenance != "" {
		plan = [3]int{s.fp.StructBudget + s.fp.ValueBudget, s.fp.StructBudget, s.fp.ValueBudget}
	}
	for _, v := range plan {
		ww.Int(v)
	}
	for range reservedSlots {
		ww.Int(0)
	}
	ww.String(string(s.fp.Provenance))
	ww.String(s.fp.WorkloadFingerprint)

	// Term dictionary.
	ww.Uint(uint64(s.dict.Len()))
	for _, term := range s.dict.Terms() {
		ww.String(term)
	}

	// Graph.
	ww.Int(int(s.rootID))
	ww.Int(int(s.nextID))
	nodes := s.Nodes()
	ww.Uint(uint64(len(nodes)))
	for _, n := range nodes {
		ww.Int(int(n.ID))
		ww.String(n.Label)
		ww.Uint(uint64(n.VType))
		ww.Float(n.Count)
		ww.String(n.Path)
		ww.Uint(uint64(len(n.Children)))
		targets := make([]int, 0, len(n.Children))
		for c := range n.Children {
			targets = append(targets, int(c))
		}
		sort.Ints(targets)
		for _, c := range targets {
			ww.Int(c)
			ww.Float(n.Children[NodeID(c)])
		}
		if n.VSum != nil {
			ww.Uint(1)
			vsum.Encode(ww, n.VSum)
		} else {
			ww.Uint(0)
		}
	}
	if err := ww.Flush(); err != nil {
		return ww.Len(), fmt.Errorf("core: WriteTo: %w", err)
	}
	return ww.Len(), nil
}

// ReadSynopsis deserializes a synopsis written by WriteTo. All format
// versions decode: v1 files yield a zero fingerprint, v2 files carry
// their build identity with an empty provenance (unknown), v3 files
// add the provenance and workload fingerprint. Unknown versions fail
// with ErrSynopsisVersion.
func ReadSynopsis(r io.Reader) (*Synopsis, error) {
	// The reader holds the whole input in one buffer (sized from Len or
	// a regular file's Stat), so corrupt length prefixes fail before
	// allocating.
	rr := wire.NewReader(r)
	head := rr.Raw(len(magicV2))
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("core: ReadSynopsis: magic: %w", err)
	}
	var fp Fingerprint
	switch string(head) {
	case string(magicV1):
		// Legacy artifact: no header, zero fingerprint.
	case string(magicV2), string(magicV3):
		fp.DocHash = rr.Uint()
		fp.StructBudget = rr.Int()
		fp.ValueBudget = rr.Int()
		fp.Generation = rr.Uint()
		fp.BuiltAtUnix = int64(rr.Int())
		fp.BuildNanos = int64(rr.Int())
		fp.BuildOptions = rr.String()
		if string(head) == string(magicV3) {
			for range 3 + reservedSlots {
				rr.Int()
			}
			fp.Provenance = Provenance(rr.String())
			fp.WorkloadFingerprint = rr.String()
		}
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("core: ReadSynopsis: header: %w", err)
		}
	default:
		if string(head[:len("XCLUSTER")]) == "XCLUSTER" {
			return nil, fmt.Errorf("core: ReadSynopsis: %w: magic %q (this build reads versions 1-%d)",
				ErrSynopsisVersion, head, CodecVersion)
		}
		return nil, fmt.Errorf("core: ReadSynopsis: %w: not an XCluster synopsis file (magic %q)",
			ErrSynopsisVersion, head)
	}

	dict := xmltree.NewDict()
	nTerms := rr.Uint()
	for i := uint64(0); i < nTerms && rr.Err() == nil; i++ {
		dict.Intern(rr.String())
	}

	s := newSynopsis(dict)
	s.fp = fp
	s.rootID = NodeID(rr.Int())
	s.nextID = NodeID(rr.Int())
	nNodes := rr.Uint()
	type pendingEdge struct {
		from, to NodeID
		avg      float64
	}
	var edges []pendingEdge
	for i := uint64(0); i < nNodes && rr.Err() == nil; i++ {
		n := &Node{
			ID:       NodeID(rr.Int()),
			Label:    rr.String(),
			VType:    xmltree.ValueType(rr.Uint()),
			Count:    rr.Float(),
			Path:     rr.String(),
			Children: make(map[NodeID]float64),
			Parents:  make(map[NodeID]struct{}),
		}
		nEdges := rr.Uint()
		for e := uint64(0); e < nEdges && rr.Err() == nil; e++ {
			edges = append(edges, pendingEdge{from: n.ID, to: NodeID(rr.Int()), avg: rr.Float()})
		}
		if rr.Uint() == 1 {
			sum, err := vsum.Decode(rr)
			if err != nil {
				return nil, fmt.Errorf("core: ReadSynopsis: node %d: %w", n.ID, err)
			}
			n.VSum = sum
		}
		if rr.Err() == nil {
			s.nodes[n.ID] = n
		}
	}
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("core: ReadSynopsis: %w", err)
	}
	for _, e := range edges {
		from, to := s.nodes[e.from], s.nodes[e.to]
		if from == nil || to == nil {
			return nil, fmt.Errorf("core: ReadSynopsis: edge %d->%d references missing node", e.from, e.to)
		}
		s.setEdge(from, to, e.avg)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: ReadSynopsis: %w", err)
	}
	return s, nil
}
