package profile

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"xcluster/internal/accuracy"
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
	// The recorded fingerprint is the one the snapshot's contents hash
	// to, so an archived artifact can be checked against its body.
	if got := orig.Snapshot.fingerprint(); got != orig.Fingerprint {
		t.Fatalf("Profile fingerprint %q, snapshot hashes to %q", orig.Fingerprint, got)
	}
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	var got Profile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	// The encoding loses nothing: decoding reproduces the artifact field
	// for field, and re-encoding it is byte-identical.
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, orig)
	}
	data2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Fatal("re-encoded artifact differs from original bytes")
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
