package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyPoll is how often GET /readyz is retried while a daemon starts.
// A shorter interval would have the benchmark compete with the starting
// daemon for the CPU, adding to the set-up time it measures.
const readyPoll = time.Millisecond

// buildDaemon compiles cmd/xclusterd from the working tree at root into
// dir and returns the binary's path and its -version line.
func buildDaemon(root, dir string) (bin, version string, err error) {
	bin, err = filepath.Abs(filepath.Join(dir, "xclusterd"))
	if err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xclusterd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building xclusterd: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-version").Output()
	if err != nil {
		return "", "", fmt.Errorf("xclusterd -version: %w", err)
	}
	return bin, strings.TrimSpace(string(out)), nil
}

// daemon is one running xclusterd.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error // receives cmd.Wait's result once the process exits
	// setup is the time from exec to the first 200 from GET /readyz,
	// and rss the resident set in MiB right after it.
	setup time.Duration
	rss   float64
}

// startDaemon execs xclusterd on a free loopback port serving the
// manifest, and returns once /readyz answers 200. extraEnv is appended
// to the inherited environment; the daemon's log goes to logPath.
func startDaemon(bin, manifest, logPath string, extraEnv ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d := &daemon{addr: fmt.Sprintf("127.0.0.1:%d", port), done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-catalog", manifest, "-addr", d.addr)
	d.cmd.Env = append(os.Environ(), extraEnv...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting xclusterd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	for {
		if status, _, err := get(d.addr, "/readyz"); err == nil && status == http.StatusOK {
			d.setup = time.Since(t0)
			if d.rss, err = rssMiB(d.pid(), "VmRSS"); err != nil {
				d.stop()
				return nil, err
			}
			return d, nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("xclusterd exited before ready (%v); log: %s", err, logPath)
		case <-time.After(readyPoll):
		}
		if time.Since(t0) > time.Minute {
			d.stop()
			return nil, fmt.Errorf("xclusterd not ready after a minute; log: %s", logPath)
		}
	}
}

// stop sends SIGTERM and waits for the graceful drain, killing the
// process if it has not exited after 20s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.done:
		d.done <- err
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // best effort; Wait below reaps it
		<-d.done
		return fmt.Errorf("xclusterd did not stop within 20s of SIGTERM")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// conn is one keep-alive connection that writes pre-rendered requests
// and parses each response with http.ReadResponse. An http.Client hands
// every request between three goroutines; on a 2-core host that more
// than doubled the load generator's CPU per request, which the daemon
// then lacked (README.md, "What a run does").
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

// rawRequest renders a complete HTTP/1.1 POST of a JSON body.
func rawRequest(addr, path string, body []byte) []byte {
	return fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, addr, len(body), body)
}

// roundTrip sends req and reads the response. The returned body is
// valid until the next call. After an error, or a response that closes
// the connection, the next call redials.
func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReader(nc)
	}
	resp, err := c.exchange(req)
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

func (c *conn) exchange(req []byte) (*http.Response, error) {
	if _, err := c.c.Write(req); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	return resp, err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// get sends one control request (readiness, metrics, stats).
func get(addr, path string) (int, []byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads one unlabeled sample from the daemon's /metrics.
func scrape(addr string, names ...string) ([]float64, error) {
	status, body, err := get(addr, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := make([]float64, len(names))
	for i, name := range names {
		prefix := []byte(name + " ")
		found := false
		for _, line := range bytes.Split(body, []byte("\n")) {
			if bytes.HasPrefix(line, prefix) {
				if out[i], err = strconv.ParseFloat(string(line[len(prefix):]), 64); err != nil {
					return nil, fmt.Errorf("metric %s: %w", name, err)
				}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("metric %s missing from /metrics", name)
		}
	}
	return out, nil
}

// cpuSeconds returns the process's user+system CPU time from
// /proc/<pid>/stat (Linux clock ticks are 1/100 s).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// rssMiB returns one memory field of /proc/<pid>/status, such as VmRSS
// or VmHWM, in MiB.
func rssMiB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s missing from /proc/%d/status", field, pid)
}
