package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// raceEnabled is set under the race detector, whose instrumentation
// makes allocation counts meaningless.
var raceEnabled bool

func TestRoundTripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(-42)
	w.Int(0)
	w.Int(1 << 40)
	w.Uint(7)
	w.Float(3.14159)
	w.Float(math.Inf(1))
	w.String("hello")
	w.String("")
	w.Bytes([]byte("RAW"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Len() != int64(buf.Len()) {
		t.Fatalf("Len = %d, wrote %d", w.Len(), buf.Len())
	}

	r := NewReader(&buf)
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Int(); got != 0 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Int(); got != 1<<40 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Uint(); got != 7 {
		t.Fatalf("Uint = %d", got)
	}
	if got := r.Float(); got != 3.14159 {
		t.Fatalf("Float = %g", got)
	}
	if got := r.Float(); !math.IsInf(got, 1) {
		t.Fatalf("Float = %g", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	r.Expect([]byte("RAW"))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	_ = r.Int() // EOF
	if r.Err() == nil {
		t.Fatal("no error on empty stream")
	}
	// Further reads return zero values without panicking.
	if r.Uint() != 0 || r.Float() != 0 || r.String() != "" {
		t.Fatal("reads after error returned values")
	}
}

func TestExpectMismatch(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("WRONG")))
	r.Expect([]byte("MAGIC"))
	if r.Err() == nil {
		t.Fatal("Expect accepted wrong magic")
	}
}

func TestStringLengthGuard(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint(1 << 30) // absurd length prefix
	_ = w.Flush()
	r := NewReader(&buf)
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("oversized string accepted")
	}
}

func TestStringLengthExceedsRemaining(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint(1 << 20) // claims 1 MiB follows
	w.Bytes([]byte("short"))
	_ = w.Flush()
	// bytes.Reader exposes Len, so the limit is detected automatically
	// and the lying prefix is rejected before any body allocation.
	r := NewReader(bytes.NewReader(buf.Bytes()))
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("length beyond remaining input accepted")
	}
	if got := r.String(); got != "" || r.Err() == nil {
		t.Fatal("error did not stick")
	}
}

// TestLyingPrefixOnOpaqueStream: a stream that cannot report its
// length is read in full, and a regular file is sized by Stat, so on
// both a length prefix beyond the real input is rejected.
func TestLyingPrefixOnOpaqueStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint(1 << 20)
	w.Bytes([]byte("short"))
	_ = w.Flush()
	r := NewReader(io.MultiReader(bytes.NewReader(buf.Bytes())))
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("length beyond an opaque stream's input accepted")
	}

	path := filepath.Join(t.TempDir(), "lie.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r = NewReader(f)
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("length beyond a file's input accepted")
	}
}

// TestMaxLengthLieTruncated: the largest admissible length prefix over
// a stream that holds far fewer bytes fails without allocating the
// claimed length.
func TestMaxLengthLieTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint(maxStringLen) // largest admissible lie
	w.Bytes(make([]byte, 96<<10))
	_ = w.Flush()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(io.MultiReader(bytes.NewReader(buf.Bytes())))
	_ = r.String()
	runtime.ReadMemStats(&after)
	if r.Err() == nil {
		t.Fatal("truncated string accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= maxStringLen {
		t.Fatalf("a lying prefix allocated %d bytes, want under the claimed %d", got, maxStringLen)
	}
}

func TestLargeStringRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 3<<16+17)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.String(long)
	_ = w.Flush()
	r := NewReader(io.MultiReader(bytes.NewReader(buf.Bytes())))
	if got := r.String(); got != long {
		t.Fatalf("round trip corrupted string (len %d vs %d)", len(got), len(long))
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFailSticks: a decoder's Fail sticks like a read error, and only
// the first error is kept.
func TestFailSticks(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint(7)
	w.Uint(8)
	_ = w.Flush()
	r := NewReader(&buf)
	first := errors.New("first")
	r.Fail(first)
	r.Fail(errors.New("second"))
	if r.Uint() != 0 || r.Err() != first {
		t.Fatalf("after Fail: err %v, want the first", r.Err())
	}
}

// errReader returns its bytes, then a non-EOF error.
type errReader struct{ b []byte }

func (e *errReader) Read(p []byte) (int, error) {
	if len(e.b) == 0 {
		return 0, errors.New("disk on fire")
	}
	n := copy(p, e.b)
	e.b = e.b[n:]
	return n, nil
}

// TestReadErrorSticks: an I/O error while the input is read fails the
// reader at once.
func TestReadErrorSticks(t *testing.T) {
	r := NewReader(&errReader{b: []byte{1, 2, 3}})
	if r.Err() == nil || r.Uint() != 0 {
		t.Fatal("read error did not stick")
	}
}

// TestOverflowingVarint: a varint longer than 64 bits fails.
func TestOverflowingVarint(t *testing.T) {
	r := NewReader(bytes.NewReader(bytes.Repeat([]byte{0xff}, 11)))
	if r.Uint() != 0 || r.Err() == nil {
		t.Fatal("overflowing varint accepted")
	}
}

// TestPrimitiveAllocs pins the codec's primitives at zero allocations
// per call: the writer encodes floats and strings through its own
// buffers, and the reader decodes by indexing its input (a String
// allocates only the string it returns).
func TestPrimitiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w := NewWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		w.Int(-42)
		w.Uint(300)
		w.Float(1.5)
		w.String("hello")
	}); n != 0 {
		t.Errorf("Writer: %v allocs per round, want 0", n)
	}
	var buf bytes.Buffer
	ww := NewWriter(&buf)
	for range 200 {
		ww.Int(-42)
		ww.Uint(300)
		ww.Float(1.5)
		ww.String("")
	}
	_ = ww.Flush()
	r := NewReader(&buf)
	if n := testing.AllocsPerRun(100, func() {
		r.Int()
		r.Uint()
		r.Float()
		_ = r.String()
	}); n != 0 || r.Err() != nil {
		t.Errorf("Reader: %v allocs per round (err %v), want 0", n, r.Err())
	}
}

func TestReaderCountsBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(-42)
	w.Uint(300)
	w.Float(1.5)
	w.String("hello")
	_ = w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	_ = r.Int()
	_ = r.Uint()
	_ = r.Float()
	_ = r.String()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Len() != int64(buf.Len()) {
		t.Fatalf("consumed %d bytes, stream has %d", r.Len(), buf.Len())
	}
}

func TestRaw(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("MAGICrest")))
	if got := r.Raw(5); string(got) != "MAGIC" {
		t.Fatalf("Raw = %q", got)
	}
	if got := r.Raw(99); got != nil || r.Err() == nil {
		t.Fatal("Raw past EOF did not fail")
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, v := range vals {
			w.Int(int(v))
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, v := range vals {
			if r.Int() != int(v) {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloatRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, v := range vals {
			w.Float(v)
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, v := range vals {
			got := r.Float()
			if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// shortLen reports a length below what it holds, as a file that grew
// after its Stat would.
type shortLen struct{ *bytes.Reader }

func (s shortLen) Len() int { return s.Reader.Len() / 2 }

// TestReadPastSizeHint: a size hint is only a hint; the whole input is
// read and decodes.
func TestReadPastSizeHint(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range 1000 {
		w.Int(i)
	}
	_ = w.Flush()
	r := NewReader(shortLen{bytes.NewReader(buf.Bytes())})
	for i := range 1000 {
		if got := r.Int(); got != i {
			t.Fatalf("Int %d = %d (err %v)", i, got, r.Err())
		}
	}
	if r.Err() != nil || r.Len() != int64(buf.Len()) {
		t.Fatalf("err %v, consumed %d of %d", r.Err(), r.Len(), buf.Len())
	}
}
