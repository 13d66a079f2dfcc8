package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"xcluster/internal/accuracy"
	"xcluster/internal/core"
)

// ProfileVersion is the WorkloadProfile file-format version this build
// writes.
const ProfileVersion = 1

// Profile is the versioned WorkloadProfile artifact: a Snapshot plus
// identity, exported at GET /admin/workload/export in Encode's stable
// form. It is an audit record: an operator saves it to archive or diff
// the traffic mix, and its Fingerprint is the one stamped into rebuild
// SwapEvents and onto the fingerprint of a workload-split synopsis, so
// a saved profile names the traffic a rebuild was planned on. Nothing
// in-process reads it back: adaptive rebuilds score on
// Profiler.Representatives.
type Profile struct {
	Version        int   `json:"version"`
	CapturedAtUnix int64 `json:"captured_at_unix"`
	// Fingerprint identifies the workload mix: a 16-hex hash over the
	// class and shape counts (capture time and rates excluded, so two
	// captures of identical traffic fingerprint identically).
	Fingerprint string `json:"fingerprint"`
	Snapshot
}

// Profile captures the profiler at time now as a persistable artifact,
// with class error and pain joined from rep.
func (p *Profiler) Profile(now time.Time, rep accuracy.Report) Profile {
	snap := p.Snapshot(now)
	snap.Join(rep)
	return Profile{
		Version:        ProfileVersion,
		CapturedAtUnix: now.Unix(),
		Fingerprint:    snap.fingerprint(),
		Snapshot:       snap,
	}
}

// Fingerprint returns the 16-hex fingerprint of the current workload
// mix ("" on a nil profiler) without building a full artifact.
func (p *Profiler) Fingerprint(now time.Time) string {
	if p == nil {
		return ""
	}
	snap := p.Snapshot(now)
	return snap.fingerprint()
}

// fingerprint hashes the snapshot's identity-bearing fields: version,
// shape capacity, window, and the class and shape counts. Rates,
// latencies, and join results are derived views and excluded.
func (s *Snapshot) fingerprint() string {
	var b bytes.Buffer
	b.WriteString("v")
	b.WriteString(strconv.Itoa(ProfileVersion))
	b.WriteString("|cap=")
	b.WriteString(strconv.Itoa(s.Capacity))
	b.WriteString("|win=")
	b.WriteString(strconv.FormatFloat(s.WindowSeconds, 'g', -1, 64))
	for _, c := range s.Classes {
		fmt.Fprintf(&b, "|c:%s=%d/%d", c.Class, c.Count, c.Failed)
	}
	for _, sh := range s.Shapes {
		fmt.Fprintf(&b, "|s:%s=%d-%d", sh.ID, sh.Count, sh.CountError)
	}
	return fmt.Sprintf("%016x", core.CanonicalHash(b.String()))
}

// Encode renders the profile as its canonical JSON file form.
func Encode(p Profile) ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("profile: encode: %w", err)
	}
	return append(b, '\n'), nil
}
