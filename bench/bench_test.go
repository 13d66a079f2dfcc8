package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// raceEnabled is set under the race detector, which slows the
// in-process layers several times over while the daemon runs
// uninstrumented, so the layers cannot account for the wire time.
var raceEnabled bool

// TestSmoke runs every workload at a tenth of its scale with 1s windows
// and no warm-up, end to end and traced, and checks that each run emits exactly the
// metrics BENCHMARK.json declares, with their units, answers every
// request correctly, and that the layers account for the wire time.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var contract struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}

	cfg := config{
		out:    t.TempDir(),
		seed:   1,
		window: time.Second,
		scale:  0.1,
	}
	if cfg.daemonBin, _, err = buildDaemon(root, cfg.out); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		reps, err := benchWorkload(cfg, s, false, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range reps {
			traced := i == 1
			want := contract.EndToEnd
			if traced {
				want = contract.PerLayer
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s (traced %v): %d of %d requests failed", s.name, traced, rep.failed, rep.attempted)
			}
			got := map[string]metric{}
			rep.metrics("", got)
			if len(got) != len(want) {
				t.Errorf("%s (traced %v): emitted %d metrics, BENCHMARK.json declares %d", s.name, traced, len(got), len(want))
			}
			for _, d := range want {
				m, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s not emitted", s.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s (traced %v): metric %s in %q, BENCHMARK.json says %q", s.name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			if traced && !raceEnabled && got["trace_consistent"].Value != 1 {
				t.Errorf("%s: layer self times exceed the wire time: %+v", s.name, rep.entries)
			}
		}
	}
}
