package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"xcluster/internal/query"
	"xcluster/internal/vsum"
	"xcluster/internal/wire"
)

func TestCodecRoundTrip(t *testing.T) {
	tr := figure1(t)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ref.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != ref.NumNodes() || back.NumEdges() != ref.NumEdges() {
		t.Fatalf("shape changed: %d/%d nodes, %d/%d edges",
			back.NumNodes(), ref.NumNodes(), back.NumEdges(), ref.NumEdges())
	}
	if back.StructBytes() != ref.StructBytes() || back.ValueBytes() != ref.ValueBytes() {
		t.Fatalf("size accounting changed: %d/%d struct, %d/%d value",
			back.StructBytes(), ref.StructBytes(), back.ValueBytes(), ref.ValueBytes())
	}
	// Estimates are bit-identical across the round trip.
	a, b := NewEstimator(ref), NewEstimator(back)
	for _, qs := range []string{
		"//paper", "//paper[year>2000]", "//title[contains(Tree)]",
		"//paper[keywords ftcontains(xml)]", "//author[./book/year]",
		"/dblp//title", "//book[foreword ftcontains(database,systems)]",
	} {
		q := query.MustParse(qs)
		x, y := a.Selectivity(q), b.Selectivity(q)
		if math.Abs(x-y) > 1e-12*math.Max(1, x) {
			t.Fatalf("s(%s): %g before, %g after", qs, x, y)
		}
	}
}

func TestCodecRoundTripCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomTree(rng, 300)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := XClusterBuild(ref, BuildOptions{
		StructBudget: ref.StructBytes() / 4,
		ValueBudget:  ref.ValueBytes() / 4,
		Hm:           200, Hl: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewEstimator(s), NewEstimator(back)
	for i := 0; i < 25; i++ {
		q := randomStructQuery(rng, tr)
		if x, y := a.Selectivity(q), b.Selectivity(q); math.Abs(x-y) > 1e-12*math.Max(1, x) {
			t.Fatalf("s(%s): %g before, %g after", q, x, y)
		}
	}
}

func TestCodecSerializedSizeTracksAccounting(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	var buf bytes.Buffer
	if _, err := ref.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The byte accounting is a model, not the exact file size, but the
	// two must be the same order of magnitude — otherwise the paper's
	// budget semantics would be fiction.
	charged := ref.TotalBytes()
	actual := buf.Len()
	if actual > charged*4 || charged > actual*4 {
		t.Fatalf("charged %d bytes vs serialized %d bytes", charged, actual)
	}
}

// writeV1 encodes s in the legacy version-1 format (no fingerprint
// header) — a copy of the pre-versioning encoder, kept to generate and
// regenerate the golden fixture in testdata and to prove the decoder's
// backward compatibility.
func writeV1(w io.Writer, s *Synopsis) error {
	ww := wire.NewWriter(w)
	ww.Bytes(magicV1)
	ww.Uint(uint64(s.dict.Len()))
	for _, term := range s.dict.Terms() {
		ww.String(term)
	}
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
	return ww.Flush()
}

const goldenV1 = "testdata/synopsis_v1.bin"

// TestCodecV1Golden decodes the checked-in version-1 fixture: a legacy
// artifact must keep decoding correctly (zero fingerprint, valid graph,
// estimates preserved across a re-encode into the current version).
// Regenerate the fixture with GOLDEN_UPDATE=1 go test -run V1Golden.
func TestCodecV1Golden(t *testing.T) {
	if os.Getenv("GOLDEN_UPDATE") != "" {
		tr := figure1(t)
		ref, err := BuildReference(tr, ReferenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := XClusterBuild(ref, BuildOptions{StructBudget: ref.StructBytes(), ValueBudget: ref.ValueBytes()})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeV1(&buf, s); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV1, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenV1, buf.Len())
	}
	raw, err := os.ReadFile(goldenV1)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	s, err := ReadSynopsis(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v1 fixture no longer decodes: %v", err)
	}
	if !s.Fingerprint().IsZero() {
		t.Fatalf("v1 artifact decoded with a fingerprint: %+v", s.Fingerprint())
	}
	if s.NumNodes() == 0 {
		t.Fatal("v1 fixture decoded empty")
	}
	// Re-encode into the current version; estimates must survive
	// bit-for-bit.
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewEstimator(s), NewEstimator(back)
	for _, qs := range []string{
		"//paper", "//paper[year>2000]", "//title[contains(Tree)]", "/dblp//title",
	} {
		q := query.MustParse(qs)
		if x, y := a.Selectivity(q), b.Selectivity(q); x != y {
			t.Fatalf("s(%s): %g from v1, %g after v2 round trip", qs, x, y)
		}
	}
}

// v3Golden names the version-3 fixtures TestCodecV3Golden pins: the
// figure1 reference synopsis, a static build at Bstr = Bval = 256, and
// the same build stamped with workload provenance.
var v3Golden = []string{"reference", "static", "workload"}

const (
	goldenWorkloadFP = "00c0ffee00c0ffee"
	goldenGeneration = 3
	goldenBuiltAt    = 1700000000
	goldenBuildNanos = 123456789
)

// v3GoldenSynopses builds the TestCodecV3Golden fixtures' synopses,
// with a fixed generation and clock so the bytes are reproducible.
func v3GoldenSynopses(t *testing.T) map[string]*Synopsis {
	t.Helper()
	ref, err := BuildReference(figure1(t), ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := XClusterBuild(ref, BuildOptions{StructBudget: 256, ValueBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	workload := static.Clone()
	out := map[string]*Synopsis{"reference": ref, "static": static, "workload": workload}
	for _, s := range out {
		fp := s.Fingerprint()
		fp.Generation, fp.BuiltAtUnix, fp.BuildNanos = goldenGeneration, goldenBuiltAt, goldenBuildNanos
		s.SetFingerprint(fp)
	}
	fp := workload.Fingerprint()
	fp.Provenance, fp.WorkloadFingerprint = ProvenanceWorkload, goldenWorkloadFP
	workload.SetFingerprint(fp)
	return out
}

// TestCodecV3Golden decodes the checked-in version-3 fixtures and
// re-encodes them: the fingerprint fields must decode as written and
// the re-encoding must reproduce the committed bytes, so the header
// layout cannot drift. Regenerate the fixtures with
// GOLDEN_UPDATE=1 go test -run V3Golden.
func TestCodecV3Golden(t *testing.T) {
	if os.Getenv("GOLDEN_UPDATE") != "" {
		for name, s := range v3GoldenSynopses(t) {
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			path := "testdata/synopsis_v3_" + name + ".bin"
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, buf.Len())
		}
	}
	for _, name := range v3Golden {
		raw, err := os.ReadFile("testdata/synopsis_v3_" + name + ".bin")
		if err != nil {
			t.Fatalf("missing golden fixture (regenerate with GOLDEN_UPDATE=1): %v", err)
		}
		s, err := ReadSynopsis(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: v3 fixture no longer decodes: %v", name, err)
		}
		fp := s.Fingerprint()
		if fp.DocHash == 0 || fp.Generation != goldenGeneration || fp.BuiltAtUnix != goldenBuiltAt || fp.BuildNanos != goldenBuildNanos {
			t.Fatalf("%s: identity fields lost: %+v", name, fp)
		}
		var bstr, bval int
		var prov Provenance
		var wfp string
		switch name {
		case "static":
			bstr, bval, prov = 256, 256, ProvenanceStatic
		case "workload":
			bstr, bval, prov, wfp = 256, 256, ProvenanceWorkload, goldenWorkloadFP
		}
		if fp.StructBudget != bstr || fp.ValueBudget != bval ||
			fp.Provenance != prov || fp.WorkloadFingerprint != wfp {
			t.Fatalf("%s: decoded fingerprint %+v, want budgets %d/%d provenance %q workload %q",
				name, fp, bstr, bval, prov, wfp)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("%s: re-encoding changed the bytes (%d vs %d)", name, buf.Len(), len(raw))
		}
	}
}

func TestCodecFingerprintRoundTrip(t *testing.T) {
	tr := figure1(t)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Fingerprint().DocHash == 0 {
		t.Fatal("BuildReference left DocHash unset")
	}
	s, err := XClusterBuild(ref, BuildOptions{StructBudget: 256, ValueBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	fp := s.Fingerprint()
	if fp.DocHash != ref.Fingerprint().DocHash {
		t.Fatal("compression lost the doc hash")
	}
	if fp.StructBudget != 256 || fp.ValueBudget != 256 {
		t.Fatalf("budgets not stamped: %+v", fp)
	}
	if fp.BuiltAtUnix == 0 || fp.BuildNanos <= 0 {
		t.Fatalf("build time not stamped: %+v", fp)
	}
	fp.Generation = 7
	s.SetFingerprint(fp)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != fp {
		t.Fatalf("fingerprint changed across round trip:\n got %+v\nwant %+v", back.Fingerprint(), fp)
	}
}

func TestCodecUnknownVersion(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	var buf bytes.Buffer
	if _, err := ref.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), buf.Bytes()...)
	copy(future, "XCLUSTER9\n")
	if _, err := ReadSynopsis(bytes.NewReader(future)); !errors.Is(err, ErrSynopsisVersion) {
		t.Fatalf("future version: got %v, want ErrSynopsisVersion", err)
	}
	garbage := append([]byte(nil), buf.Bytes()...)
	copy(garbage, "NOTASYNOP\n")
	if _, err := ReadSynopsis(bytes.NewReader(garbage)); !errors.Is(err, ErrSynopsisVersion) {
		t.Fatalf("garbage magic: got %v, want ErrSynopsisVersion", err)
	}
}

// TestCodecLyingLengthPrefix corrupts a term-dictionary length prefix
// to claim more bytes than the file holds: the decode must fail with a
// sticky error, not allocate the claimed length or panic.
func TestCodecLyingLengthPrefix(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	var buf bytes.Buffer
	if _, err := ref.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// The fingerprint header ends with a (normally empty) options
	// string; splice in a huge varint length right after the header so
	// the first dictionary string read sees it.
	var head bytes.Buffer
	hw := wire.NewWriter(&head)
	hw.Uint(1 << 23) // just under maxStringLen: passes the size guard
	_ = hw.Flush()
	corrupt := append([]byte(nil), good[:len(magicV2)]...)
	corrupt = append(corrupt, head.Bytes()...)
	corrupt = append(corrupt, good[len(magicV2):len(good)/2]...)
	if _, err := ReadSynopsis(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("lying length prefix accepted")
	}
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	tr := figure1(t)
	ref, _ := BuildReference(tr, ReferenceOptions{})
	var buf bytes.Buffer
	if _, err := ref.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("NOTASYNOP\n"), good[10:]...),
		"truncated":  good[:len(good)/2],
		"magic only": good[:10],
	}
	for name, data := range cases {
		if _, err := ReadSynopsis(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted corrupt input", name)
		}
	}
}

// corruptPSTs returns encodings of s, which must hold a STRING summary,
// with the first PST's trie replaced by one no encoder writes. Each
// keeps the PST's header and the bytes after it, so the rest of the
// file decodes in step.
func corruptPSTs(t testing.TB, s *Synopsis) map[string][]byte {
	t.Helper()
	var file bytes.Buffer
	if _, err := s.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	var tree bytes.Buffer
	for _, n := range s.Nodes() {
		if str, ok := n.VSum.(*vsum.String); ok {
			w := wire.NewWriter(&tree)
			str.T.Encode(w)
			_ = w.Flush()
			break
		}
	}
	at := bytes.Index(file.Bytes(), tree.Bytes())
	if tree.Len() == 0 || at < 0 {
		t.Fatal("no PST in the synopsis encoding")
	}
	const header = 10 // count float, depth and exact-depth varints
	leaf := func(w *wire.Writer, c byte) {
		w.Uint(uint64(c))
		w.Float(1)
		w.Uint(0)
	}
	out := make(map[string][]byte)
	for name, body := range map[string]func(w *wire.Writer){
		// Once accepted as an empty trie that still claimed its exact
		// depth, so every substring estimated 0.
		"child count above 256": func(w *wire.Writer) {
			w.Uint(300)
			w.Uint(0)
		},
		"duplicate child symbol": func(w *wire.Writer) {
			w.Uint(2)
			leaf(w, 'a')
			leaf(w, 'a')
		},
		"unsorted child symbols": func(w *wire.Writer) {
			w.Uint(2)
			leaf(w, 'b')
			leaf(w, 'a')
		},
	} {
		var b bytes.Buffer
		b.Write(file.Bytes()[:at+header])
		w := wire.NewWriter(&b)
		body(w)
		_ = w.Flush()
		b.Write(file.Bytes()[at+tree.Len():])
		out[name] = b.Bytes()
	}
	return out
}

// TestCodecRejectsCorruptPST: a synopsis whose PST trie is corrupt is
// rejected as a whole.
func TestCodecRejectsCorruptPST(t *testing.T) {
	ref, err := BuildReference(figure1(t), ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range corruptPSTs(t, ref) {
		if _, err := ReadSynopsis(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
