package main

import (
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestNewServerTimeouts pins the daemon's server timeouts: reads are
// bounded, idle connections are closed, and no write deadline is set
// (a synchronous POST /admin/rebuild answers after seconds).
func TestNewServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newServer(":0", h)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Fatalf("server addr/handler = %q/%v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts header=%v read=%v idle=%v, want %v/%v/%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout,
			readHeaderTimeout, readTimeout, idleTimeout)
	}
	if srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("read timeout %v and idle timeout %v must be positive", srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("write timeout = %v, want none", srv.WriteTimeout)
	}
}

// TestFlagsDocumented keeps README.md and the flag set in step: every
// registered flag appears in README as `-name`, and every `-name` token
// in README's "Operating xclusterd" section is a registered flag.
func TestFlagsDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	flags := make(map[string]bool)
	newFlagSet(&config{}, io.Discard).VisitAll(func(f *flag.Flag) { flags[f.Name] = true })
	for name := range flags {
		if !strings.Contains(readme, "`-"+name+"`") {
			t.Errorf("flag -%s is not documented in README.md as `-%s`", name, name)
		}
	}

	const heading = "### Operating xclusterd\n"
	start := strings.Index(readme, heading)
	if start < 0 {
		t.Fatalf("README.md has no %q section", strings.TrimSpace(heading))
	}
	// The section runs to the next heading; the "# HELP" lines of its
	// metrics sample are not headings.
	section := readme[start+len(heading):]
	if end := regexp.MustCompile(`(?m)^##`).FindStringIndex(section); end != nil {
		section = section[:end[0]]
	}
	tokens := regexp.MustCompile("`-([a-z][a-z0-9-]*)`").FindAllStringSubmatch(section, -1)
	if len(tokens) == 0 {
		t.Fatal("no `-flag` tokens in the Operating xclusterd section")
	}
	for _, m := range tokens {
		if !flags[m[1]] {
			t.Errorf("README's Operating xclusterd section documents `-%s`, which xclusterd does not register", m[1])
		}
	}
}
