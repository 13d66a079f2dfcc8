package catalog

import (
	"encoding/json"
	"strings"
	"testing"
)

const validManifest = `{
  "default_tenant": "acme",
  "default_collection": "docs",
  "scatter_workers": 4,
  "shards": [
    {"tenant": "acme", "collection": "docs", "synopsis": "a.xcs", "cache": 256},
    {"tenant": "acme", "collection": "mail", "synopsis": "b.xcs",
     "document": "b.xml", "shadow_rate": 0.25, "rebuild_on_drift": true},
    {"tenant": "globex", "collection": "docs", "synopsis": "c.xcs",
     "struct_budget": 4096, "value_budget": 2048}
  ]
}`

func TestParseManifestValid(t *testing.T) {
	m, err := ParseManifest([]byte(validManifest))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(m.Shards))
	}
	def, ok := m.DefaultKey()
	if !ok || def != (Key{Tenant: "acme", Collection: "docs"}) {
		t.Fatalf("default key = %v, %v", def, ok)
	}
	if m.ScatterWorkers != 4 {
		t.Fatalf("scatter_workers = %d", m.ScatterWorkers)
	}
	if !m.Shards[1].RebuildOnDrift || m.Shards[1].ShadowRate != 0.25 {
		t.Fatalf("shard 1 budgets not parsed: %+v", m.Shards[1])
	}
}

func TestParseManifestRejections(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty shards", `{"shards": []}`, "no shards"},
		{"not json", `{{{`, "parsing manifest"},
		{"unknown field", `{"shards": [{"tenant":"a","collection":"b","synopsis":"s","cahce":1}]}`, "unknown field"},
		{"trailing data", `{"shards": [{"tenant":"a","collection":"b","synopsis":"s"}]} trailing`, "trailing data"},
		{"bad tenant", `{"shards": [{"tenant":"a b","collection":"c","synopsis":"s"}]}`, "bad tenant"},
		{"bad collection", `{"shards": [{"tenant":"a","collection":"c/d","synopsis":"s"}]}`, "bad collection"},
		{"leading dash", `{"shards": [{"tenant":"-a","collection":"c","synopsis":"s"}]}`, "bad tenant"},
		{"missing synopsis", `{"shards": [{"tenant":"a","collection":"c"}]}`, "missing synopsis"},
		{"duplicate shard", `{"shards": [
			{"tenant":"a","collection":"c","synopsis":"s"},
			{"tenant":"a","collection":"c","synopsis":"t"}]}`, "duplicate shard"},
		{"shadow without document", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","shadow_rate":0.5}]}`, "requires document"},
		{"shadow rate over one", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","document":"d","shadow_rate":1.5}]}`, "outside [0,1]"},
		{"rebuild without document", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","rebuild_on_drift":true}]}`, "requires document"},
		{"adaptive budget without document", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","adaptive_budget":true}]}`, "adaptive_budget requires document"},
		{"negative budget", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","struct_budget":-1}]}`, "negative budget"},
		{"cache over cap", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","cache":100000000}]}`, "must be at most"},
		{"plan cache over cap", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","plan_cache":1048577}]}`, "must be at most"},
		{"shadow workers over cap", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","shadow_workers":65}]}`, "shadow_workers 65 outside"},
		{"negative shadow workers", `{"shards": [{"tenant":"a","collection":"c","synopsis":"s","shadow_workers":-1}]}`, "shadow_workers -1 outside"},
		{"negative workers", `{"scatter_workers": -2, "shards": [{"tenant":"a","collection":"c","synopsis":"s"}]}`, "negative scatter_workers"},
		{"half default", `{"default_tenant":"a","shards": [{"tenant":"a","collection":"c","synopsis":"s"}]}`, "set together"},
		{"default missing", `{"default_tenant":"x","default_collection":"y","shards": [{"tenant":"a","collection":"c","synopsis":"s"}]}`, "not declared"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseManifest([]byte(tc.in))
			if err == nil {
				t.Fatalf("ParseManifest accepted %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "acme", "Acme-2", "a.b_c-d", "0tenant", strings.Repeat("x", 128)} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "-a", ".a", "_a", "a b", "a/b", "a\"b", "tenant\n", strings.Repeat("x", 129)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

// FuzzParseManifest checks the parser never panics and that everything
// it accepts is internally consistent and survives a marshal/reparse
// round trip.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(validManifest))
	f.Add([]byte(`{"shards": [{"tenant":"a","collection":"b","synopsis":"s"}]}`))
	f.Add([]byte(`{"shards": []}`))
	f.Add([]byte(`{"shards": [{"tenant":"a b","collection":"c","synopsis":"s"}]}`))
	f.Add([]byte(`{"default_tenant":"a","default_collection":"b","shards":[{"tenant":"a","collection":"b","synopsis":"s","document":"d","shadow_rate":1,"rebuild_on_drift":true}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"shards": null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		// Accepted manifests validate and have well-formed names.
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v", err)
		}
		for _, sp := range m.Shards {
			if !ValidName(sp.Tenant) || !ValidName(sp.Collection) {
				t.Fatalf("accepted manifest has invalid names: %+v", sp)
			}
		}
		// Round trip: marshal and reparse must accept the same manifest.
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal accepted manifest: %v", err)
		}
		if _, err := ParseManifest(out); err != nil {
			t.Fatalf("reparse of marshaled manifest failed: %v\n%s", err, out)
		}
	})
}
