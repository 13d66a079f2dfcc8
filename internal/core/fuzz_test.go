package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"xcluster/internal/query"
)

// FuzzDecodeSynopsis feeds arbitrary bytes to the synopsis decoder: it
// must either return a valid synopsis or an error — never panic, hang,
// over-allocate on a lying length prefix, or return a synopsis that
// fails validation. Seeds cover both codec versions, truncations, and
// bit flips; checked-in inputs live in testdata/fuzz/FuzzDecodeSynopsis.
func FuzzDecodeSynopsis(f *testing.F) {
	tr := figure1(f)
	ref, err := BuildReference(tr, ReferenceOptions{})
	if err != nil {
		f.Fatal(err)
	}

	// Current (v2) encoding plus mutations.
	var buf bytes.Buffer
	if _, err := ref.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("XCLUSTER1\n"))
	f.Add([]byte("XCLUSTER2\n"))
	f.Add([]byte("XCLUSTER9\n"))
	f.Add([]byte{})
	mutated := append([]byte(nil), good...)
	for i := 20; i < len(mutated); i += 37 {
		mutated[i] ^= 0xff
	}
	f.Add(mutated)

	// Legacy (v1) encoding plus a truncation.
	var v1 bytes.Buffer
	if err := writeV1(&v1, ref); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v1.Bytes()[:len(v1.Bytes())*2/3])

	// Huge varint length prefix right after the magic.
	f.Add(append([]byte("XCLUSTER2\n"), 0xfe, 0xff, 0xff, 0xff, 0x0f))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSynopsis(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent.
		if err := s.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid synopsis: %v", err)
		}
	})
}

// FuzzEstimate runs parsed query text through the estimation pipeline
// and Explain on the figure-1 reference and its merged compression.
// Every accepted query must get a finite, non-negative estimate that
// equals the reference interpreter's bit-for-bit, and at most 5
// embeddings, sorted by decreasing finite contribution, that sum to no
// more than the estimate. Parsing the text twice through the
// estimator's text cache (ParseQuery) must give the direct parse's
// canonical string and estimate both times, and a text query.Parse
// rejects must be rejected there too.
func FuzzEstimate(f *testing.F) {
	for _, qs := range planQueries {
		f.Add(qs)
	}
	for _, qs := range wideTwigs {
		f.Add(qs)
	}
	ests := planEstimators(f)
	f.Fuzz(func(t *testing.T, text string) {
		q, err := query.Parse(text)
		if err != nil {
			for name, est := range ests {
				if _, _, cerr := est.ParseQuery(text); cerr == nil || cerr.Error() != err.Error() {
					t.Fatalf("%s: ParseQuery(%q) error %v, query.Parse %v", name, text, cerr, err)
				}
			}
			return
		}
		for name, est := range ests {
			got, err := est.SelectivityContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: SelectivityContext(%s): %v", name, q, err)
			}
			if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
				t.Fatalf("%s: estimate of %s = %v, want finite and non-negative", name, q, got)
			}
			if want := est.interpretedSelectivity(q); got != want {
				t.Fatalf("%s: estimate of %s = %v, interpreter %v", name, q, got, want)
			}
			for i := 0; i < 2; i++ {
				cq, canonical, err := est.ParseQuery(text)
				if err != nil || canonical != q.String() {
					t.Fatalf("%s: ParseQuery(%q) #%d = %q, %v; direct parse %q", name, text, i, canonical, err, q)
				}
				v, _, err := est.SelectivityTracedCanonical(context.Background(), cq, canonical)
				if err != nil || v != got {
					t.Fatalf("%s: estimate of ParseQuery(%q) #%d = %v, %v; direct parse %v", name, text, i, v, err, got)
				}
			}
			ems := est.Explain(q, 5)
			if len(ems) > 5 {
				t.Fatalf("%s: Explain(%s, 5) returned %d embeddings", name, q, len(ems))
			}
			sum := 0.0
			for i, em := range ems {
				if math.IsNaN(em.Tuples) || math.IsInf(em.Tuples, 0) {
					t.Fatalf("%s: Explain(%s)[%d].Tuples = %v", name, q, i, em.Tuples)
				}
				if i > 0 && em.Tuples > ems[i-1].Tuples {
					t.Fatalf("%s: Explain(%s) not sorted at %d", name, q, i)
				}
				sum += em.Tuples
			}
			if sum > got*(1+1e-9) {
				t.Fatalf("%s: Explain(%s) top embeddings sum to %v, estimate %v", name, q, sum, got)
			}
		}
	})
}
