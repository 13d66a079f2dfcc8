// Command bench is the repository's serving benchmark. From one seed it
// generates documents, synopses and query pools, builds cmd/xclusterd
// from the working tree, and measures each workload twice over:
//
//   - end to end: closed-loop clients drive a fresh daemon over
//     loopback HTTP with pre-encoded requests, and every answer is
//     checked bit for bit against an in-process oracle estimator;
//   - layer by layer: a single-threaded replay of the same request
//     stream times each layer's public functions from outside, each
//     layer on its own identically configured instance.
//
// Usage (from the repository root; see README.md):
//
//	bash bench/run.sh -seed 42
//	bash bench/run.sh --workload point_cold --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when
// any answer was wrong or any request failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is what every workload run shares.
type config struct {
	out       string // build outputs and per-run working files
	daemonBin string
	seed      int64
	window    time.Duration
	warmup    time.Duration // closed-loop warm-up before each window
	scale     float64       // multiplies every dataset scale; 1 but in the smoke test
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type entry struct {
	name, unit string
	value      float64
	gated      bool // part of BENCHMARK.json's metric set
}

// report is one workload run's outcome: the gated metrics, diagnostics
// printed alongside them, and the request tally.
type report struct {
	attempted, failed int64
	entries           []entry
}

func (r *report) add(name, unit string, v float64) {
	r.entries = append(r.entries, entry{name: name, unit: unit, value: v, gated: true})
}

func (r *report) note(name, unit string, v float64) {
	r.entries = append(r.entries, entry{name: name, unit: unit, value: v})
}

func (r *report) metrics(prefix string, into map[string]metric) {
	for _, e := range r.entries {
		if e.gated {
			into[prefix+e.name] = metric{Value: e.value, Unit: e.unit}
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	workloadName := flag.String("workload", "", "workload to run (default: every workload, end to end and traced)")
	seed := flag.Int64("seed", 42, "seed of every generated input")
	window := flag.Float64("seconds", 20, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 measures end to end, 1 runs the traced per-layer replay")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *window <= 0 {
		return errors.New("-seconds must be positive")
	}
	todo := specs
	if *workloadName != "" {
		s, ok := specByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		todo = []spec{s}
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	cfg := config{
		out:    filepath.Join(root, ".bench_build"),
		seed:   *seed,
		window: time.Duration(*window * float64(time.Second)),
		warmup: 3 * time.Second,
		scale:  1,
	}
	probeStart := cpuProbe()
	bin, version, err := buildDaemon(root, cfg.out)
	if err != nil {
		return err
	}
	cfg.daemonBin = bin

	res := result{Metrics: map[string]metric{}}
	for _, s := range todo {
		modes := []bool{*trace == 1}
		prefix := ""
		if *workloadName == "" {
			modes = []bool{false, true}
			prefix = s.name + "/"
		}
		reps, err := benchWorkload(cfg, s, modes...)
		if err != nil {
			return err
		}
		for _, rep := range reps {
			for _, e := range rep.entries {
				fmt.Printf("%-20s %-28s %16.6g %s\n", s.name, e.name, e.value, e.unit)
			}
			rep.metrics(prefix, res.Metrics)
			res.Attempted += rep.attempted
			res.Failed += rep.failed
		}
	}
	res.Correct = res.Failed == 0

	meta := map[string]any{
		"seed":         cfg.seed,
		"window_s":     cfg.window.Seconds(),
		"warmup_s":     cfg.warmup.Seconds(),
		"clients":      min(2, runtime.NumCPU()),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"go_version":   runtime.Version(),
		"daemon":       version,
		"cpu_probe_ms": []float64{probeStart, cpuProbe()},
	}
	if err := printJSON(map[string]any{"meta": meta}); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d requests failed or were answered wrongly", res.Failed, res.Attempted)
	}
	return nil
}

// benchWorkload generates one workload's inputs in a private directory
// and runs them once per entry of traced: end to end (false) or as the
// traced replay (true).
func benchWorkload(cfg config, s spec, traced ...bool) ([]*report, error) {
	dir := filepath.Join(cfg.out, "runs", fmt.Sprintf("%s-%d", s.name, os.Getpid()))
	defer os.RemoveAll(dir)
	fmt.Fprintf(os.Stderr, "bench: %s: generating inputs (seed %d)\n", s.name, cfg.seed)
	in, err := makeInputs(s, cfg.seed, cfg.scale, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	var reps []*report
	for _, t := range traced {
		run, what := runServing, "serving window"
		if t {
			run, what = runReplay, "traced replay"
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", s.name, what)
		rep, err := run(cfg, in)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", s.name, what, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "xclusterd")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding cmd/xclusterd) above the working directory")
		}
		dir = parent
	}
}

var probeSink uint64

// cpuProbe times a fixed hash loop, so host speed drift between runs is
// visible in the run metadata. Diagnostic only.
func cpuProbe() float64 {
	t0 := time.Now()
	h := uint64(14695981039346656037)
	for i := uint64(0); i < 1<<24; i++ {
		h ^= i
		h *= 1099511628211
	}
	probeSink = h
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
