package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemonStarts is how many times set-up is timed; the last daemon
// started serves the run.
const daemonStarts = 15

// checker verifies answers against the oracle. The first response to
// each request body is decoded and every selectivity compared bit for
// bit; a later response with identical bytes is accepted as is. Each
// client owns one, so checking takes no locks.
type checker struct {
	in   *inputs
	seen [][]byte
}

func newChecker(in *inputs) checker { return checker{in: in, seen: make([][]byte, len(in.bodies))} }

func (ck *checker) ok(i, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	if ck.seen[i] != nil && bytes.Equal(ck.seen[i], body) {
		return true
	}
	if !answersMatch(body, ck.in.expect[i]) {
		return false
	}
	ck.seen[i] = bytes.Clone(body)
	return true
}

// answersMatch decodes an estimate response (single-shard or scatter:
// both carry positional results[].selectivity) and compares it with
// want bit for bit.
func answersMatch(body []byte, want []float64) bool {
	var resp struct {
		Results []struct {
			Selectivity *float64 `json:"selectivity"`
		} `json:"results"`
	}
	if json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(want) {
		return false
	}
	for j, r := range resp.Results {
		if r.Selectivity == nil || !sameBits(*r.Selectivity, want[j]) {
			return false
		}
	}
	return true
}

// streamSeed seeds client c's request stream; the traced replay
// replays client 0's.
func streamSeed(seed int64, c int) int64 { return seed*1000 + int64(c) }

// reader is one closed-loop client: one keep-alive connection, its own
// request stream and checker, carried from the warm-up into the window.
type reader struct {
	c   *conn
	rng *rand.Rand
	ck  checker

	attempted, failed int64
	lat               []time.Duration // answered requests of the window
}

// run sends requests back to back until stop is set. Latencies are
// kept only when record is set.
func (r *reader) run(reqs [][]byte, stop *atomic.Bool, record bool) {
	for !stop.Load() {
		i := r.rng.Intn(len(reqs))
		t0 := time.Now()
		status, body, err := r.c.roundTrip(reqs[i])
		d := time.Since(t0)
		r.attempted++
		if err != nil || !r.ck.ok(i, status, body) {
			r.failed++
			continue
		}
		if record {
			r.lat = append(r.lat, d)
		}
	}
}

// daemonSample is the daemon-side state read around a window.
type daemonSample struct {
	cpu, allocs, bytes, gcs float64
}

func sampleDaemon(d *daemon) (daemonSample, error) {
	cpu, err := cpuSeconds(d.pid())
	if err != nil {
		return daemonSample{}, err
	}
	v, err := scrape(d.addr, "xcluster_go_heap_allocs_total", "xcluster_go_heap_alloc_bytes_total", "xcluster_go_gc_cycles_total")
	if err != nil {
		return daemonSample{}, err
	}
	return daemonSample{cpu: cpu, allocs: v[0], bytes: v[1], gcs: v[2]}, nil
}

// runServing measures one workload end to end against the real daemon:
// set-up time over several starts, then a warm-up and a measured window
// of closed-loop clients (on rebuild_under_load, beside back-to-back
// rebuilds).
func runServing(cfg config, in *inputs) (*report, error) {
	rep := &report{}
	var setups, readyRSS []float64
	var d *daemon
	// Collect and return the input generation's garbage now, so neither
	// a collection nor the scavenger of this process runs beside the
	// starts being timed.
	debug.FreeOSMemory()
	for i := 0; i < daemonStarts; i++ {
		var err error
		d, err = startDaemon(cfg.daemonBin, in.manifest, filepath.Join(in.dir, fmt.Sprintf("daemon-%d.log", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		readyRSS = append(readyRSS, d.rss)
		if i < daemonStarts-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop() //nolint:errcheck // the run's result is already decided

	reqs := make([][]byte, len(in.bodies))
	for i, b := range in.bodies {
		reqs[i] = rawRequest(d.addr, "/estimate", b)
	}
	readers := min(2, runtime.NumCPU())
	if in.spec.rebuild {
		readers = 1
	}
	rs := make([]*reader, readers)
	for c := range rs {
		rs[c] = &reader{
			c:   &conn{addr: d.addr},
			rng: rand.New(rand.NewSource(streamSeed(cfg.seed, c))),
			ck:  newChecker(in),
			lat: make([]time.Duration, 0, 1<<18),
		}
		defer rs[c].c.close()
	}
	var rebuilds []float64 // seconds

	rebuildReq := rawRequest(d.addr, fmt.Sprintf("/admin/rebuild?tenant=%s&collection=%s", tenant, in.colls[0].name),
		[]byte(`{"reason":"bench"}`))
	rebuilder := &conn{addr: d.addr}
	defer rebuilder.close()
	// rebuild runs one synchronous rebuild and reports whether it
	// succeeded.
	rebuild := func() bool {
		status, _, err := rebuilder.roundTrip(rebuildReq)
		rep.attempted++
		if err != nil || status != http.StatusOK {
			rep.failed++
			return false
		}
		return true
	}
	// rebuildUntil runs back-to-back rebuilds until deadline and returns
	// when the last one has completed.
	rebuildUntil := func(deadline time.Time, record bool) {
		for time.Now().Before(deadline) {
			t0 := time.Now()
			if rebuild() && record {
				rebuilds = append(rebuilds, time.Since(t0).Seconds())
			}
		}
	}

	// phase runs every client for dur. Beside rebuilds it runs on until
	// the rebuild in flight at dur completes, so that a window holds
	// whole rebuilds only: an unfinished one would add a random share of
	// its allocations, which are half the window's.
	phase := func(dur time.Duration, record bool) (time.Duration, daemonSample, error) {
		start := time.Now()
		var stop atomic.Bool
		var wg sync.WaitGroup
		for _, r := range rs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.run(reqs, &stop, record)
			}()
		}
		if in.spec.rebuild {
			rebuildUntil(start.Add(dur), record)
		} else {
			time.Sleep(dur)
		}
		stop.Store(true)
		wg.Wait()
		elapsed := time.Since(start)
		s, err := sampleDaemon(d)
		return elapsed, s, err
	}

	if _, _, err := phase(cfg.warmup, false); err != nil {
		return nil, err
	}
	// Start the window on a collected heap, so the load generator's own
	// garbage collector stays out of it.
	runtime.GC()
	before, err := sampleDaemon(d)
	if err != nil {
		return nil, err
	}
	clientBefore := selfCPU()
	elapsed, after, err := phase(cfg.window, true)
	if err != nil {
		return nil, err
	}
	clientCPU := selfCPU() - clientBefore
	peakRSS, err := rssMiB(d.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	allocs, heapBytes := after.allocs-before.allocs, after.bytes-before.bytes
	var solo daemonSample
	if in.spec.rebuild {
		// The window holds whole rebuilds only, and on one input a
		// rebuild's allocations repeat to within 0.2%. Subtracting them
		// at the count of one rebuild run alone leaves the reads', so the
		// allocation metrics mean the same on every workload and do not
		// move with rebuild speed.
		s0, err := sampleDaemon(d)
		if err != nil {
			return nil, err
		}
		if !rebuild() {
			return nil, errors.New("a rebuild with no reads beside it failed")
		}
		s1, err := sampleDaemon(d)
		if err != nil {
			return nil, err
		}
		solo = daemonSample{allocs: s1.allocs - s0.allocs, bytes: s1.bytes - s0.bytes}
		allocs -= float64(len(rebuilds)) * solo.allocs
		heapBytes -= float64(len(rebuilds)) * solo.bytes
	}

	var lat []time.Duration
	for _, r := range rs {
		rep.attempted += r.attempted
		rep.failed += r.failed
		lat = append(lat, r.lat...)
	}
	if len(lat) == 0 || in.spec.rebuild && len(rebuilds) == 0 {
		return nil, fmt.Errorf("%s: nothing answered in the window (%d requests, %d rebuilds; %d of %d requests failed)",
			in.spec.name, len(lat), len(rebuilds), rep.failed, rep.attempted)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := float64(len(lat) * in.spec.batch)

	rep.add("allocs_per_query", "allocs", allocs/q)
	rep.add("heap_bytes_per_query", "bytes", heapBytes/q)
	rep.add("rss_mb", "MiB", median(readyRSS))
	rep.add("setup_s", "s", median(setups))

	// Measured and printed on every run but not gated: on a shared host
	// they vary between runs by more than any allowed bound (README.md,
	// "Baseline and spread").
	rep.note("peak_rss_mb", "MiB", peakRSS)
	rep.note("qps", "queries/s", q/elapsed.Seconds())
	rep.note("p50_us", "us", micros(percentile(lat, 0.50)))
	rep.note("p99_us", "us", micros(percentile(lat, 0.99)))
	rep.note("cpu_us_per_query", "us", (after.cpu-before.cpu)*1e6/q)
	rep.note("gc_per_kquery", "gc/kquery", (after.gcs-before.gcs)*1000/q)
	if in.spec.rebuild {
		rep.note("rebuild_s", "s", median(rebuilds))
		rep.note("rebuilds", "count", float64(len(rebuilds)))
		rep.note("rebuild_allocs", "allocs", solo.allocs)
		rep.note("rebuild_bytes", "bytes", solo.bytes)
	}
	rep.note("failed_frac", "ratio", float64(rep.failed)/float64(rep.attempted))
	rep.note("pool", "queries", float64(in.pool))
	rep.note("samples", "requests", float64(len(lat)))
	rep.note("client_cpu_us_per_query", "us", clientCPU*1e6/q)
	return rep, nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the nearest-rank p-quantile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
