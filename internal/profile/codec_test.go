package profile

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/query"
)

// buildProfile produces a populated artifact for codec tests.
func buildProfile(t *testing.T) Profile {
	t.Helper()
	p := New(8)
	now := time.Now()
	for _, s := range []string{
		"//book[year>1990]", "//book[year>2005]", "//book",
		"//book[title contains(x)]", "//book[summary ftcontains(y)]",
	} {
		q := mustParse(t, s)
		p.Record(now, q, q.String(), 0, 2*time.Millisecond, 0.25, false)
	}
	rep := accuracy.Report{Classes: []accuracy.ClassReport{
		{Class: "range", Samples: 3, AvgRelError: 0.4},
	}}
	return p.Profile(now, rep)
}

func TestProfileRoundTrip(t *testing.T) {
	orig := buildProfile(t)
	if orig.Version != ProfileVersion || orig.Fingerprint == "" {
		t.Fatalf("artifact identity = v%d %q", orig.Version, orig.Fingerprint)
	}
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Export → parse must reproduce the snapshot exactly, field for
	// field — the acceptance contract of the WorkloadProfile artifact.
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, orig)
	}
	// And re-encoding the parsed artifact is byte-identical.
	data2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Fatal("re-encoded artifact differs from original bytes")
	}
}

func TestParseRejectsWrongVersion(t *testing.T) {
	p := buildProfile(t)
	p.Version = ProfileVersion + 1
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); !errors.Is(err, ErrProfileVersion) {
		t.Fatalf("parse of v%d = %v, want ErrProfileVersion", p.Version, err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	data, err := Encode(buildProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), `"version"`, `"surprise": 1, "version"`, 1)
	if _, err := Parse([]byte(mutated)); err == nil {
		t.Fatal("parse accepted an unknown field")
	}
}

func TestParseRejectsFingerprintMismatch(t *testing.T) {
	p := buildProfile(t)
	p.Fingerprint = "0000000000000000"
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Parse(data)
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("parse of tampered profile = %v, want fingerprint mismatch", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	data, err := Encode(buildProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(append(data, []byte("{}")...)); err == nil {
		t.Fatal("parse accepted trailing data")
	}
}

func TestFingerprintIgnoresCaptureTime(t *testing.T) {
	p := New(8)
	now := time.Now()
	q := mustParse(t, "//book")
	record(p, now, q)
	a := p.Profile(now, accuracy.Report{})
	b := p.Profile(now.Add(time.Hour), accuracy.Report{})
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("identical traffic fingerprints differ: %q vs %q", a.Fingerprint, b.Fingerprint)
	}
	record(p, now, mustParse(t, "//book/title"))
	if c := p.Profile(now, accuracy.Report{}); c.Fingerprint == a.Fingerprint {
		t.Fatal("fingerprint unchanged after new traffic")
	}
}

// FuzzParseProfile throws arbitrary bytes at the artifact parser: it
// must never panic, and anything it accepts must re-encode and re-parse
// to the same artifact.
func FuzzParseProfile(f *testing.F) {
	p := New(4)
	now := time.Unix(1700000000, 0)
	for _, s := range []string{"//book", "//book[year>1990]"} {
		q, err := query.Parse(s)
		if err != nil {
			f.Fatal(err)
		}
		p.Record(now, q, q.String(), 0, time.Millisecond, 0.5, false)
	}
	if data, err := Encode(p.Profile(now, accuracy.Report{})); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99,"fingerprint":"x"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := Parse(data)
		if err != nil {
			return
		}
		out, err := Encode(parsed)
		if err != nil {
			t.Fatalf("accepted profile failed to encode: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("re-encoded accepted profile failed to parse: %v", err)
		}
		if !reflect.DeepEqual(again, parsed) {
			t.Fatal("accepted profile is not a round-trip fixed point")
		}
	})
}
