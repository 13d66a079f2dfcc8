// Package wire implements the compact binary encoding shared by the
// synopsis serialization code: varint integers, IEEE float64s and
// length-prefixed strings over sticky-error reader/writer wrappers.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
)

// Writer encodes primitives to an underlying stream. The first error
// sticks; callers check Err (or Flush) once at the end.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Err returns the first write error.
func (w *Writer) Err() error { return w.err }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int64 { return w.n }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.n += int64(n)
	w.err = err
}

// Int encodes a signed integer as a zig-zag varint.
func (w *Writer) Int(v int) {
	n := binary.PutVarint(w.buf[:], int64(v))
	w.write(w.buf[:n])
}

// Uint encodes an unsigned integer as a varint.
func (w *Writer) Uint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.write(w.buf[:n])
}

// Float encodes a float64.
func (w *Writer) Float(v float64) {
	binary.LittleEndian.PutUint64(w.buf[:8], math.Float64bits(v))
	w.write(w.buf[:8])
}

// String encodes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	if w.err != nil {
		return
	}
	n, err := w.w.WriteString(s)
	w.n += int64(n)
	w.err = err
}

// Bytes encodes raw bytes without a prefix.
func (w *Writer) Bytes(p []byte) { w.write(p) }

// Reader decodes primitives from an in-memory copy of its input with a
// sticky error. NewReader reads the whole input into one buffer, so the
// remaining input is always known: every length prefix is checked
// against it before anything is allocated, and a corrupt or truncated
// file fails with a sticky error instead of a huge allocation.
//
// A Reader holds no reference to its source, only the buffer: a copy of
// one (ahead := *r) is an independent cursor over the same bytes, which
// a decoder can read ahead with to size an allocation before the real
// pass.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader reads all of r into memory. The buffer is sized up front
// when r reports its length: in-memory readers through a Len() int
// method (bytes.Reader, bytes.Buffer, strings.Reader), regular files
// through Stat. Other streams are read in full with a growing buffer.
// A read error other than EOF sticks at once: every read then fails.
func NewReader(r io.Reader) *Reader {
	size := int64(-1)
	switch v := r.(type) {
	case interface{ Len() int }:
		size = int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	buf, err := readAll(r, size)
	rr := &Reader{buf: buf}
	if err != nil {
		rr.Fail(fmt.Errorf("wire: read: %w", err))
	}
	return rr
}

// readAll reads r to EOF into one buffer. A size hint >= 0 sizes the
// buffer at size+1 bytes, so an input that ends where its size said
// takes one allocation and the final empty read needs no growth;
// without a hint (or past it) the buffer grows as append grows it.
func readAll(r io.Reader, size int64) ([]byte, error) {
	c := 512
	if size >= 0 && size < math.MaxInt32 {
		c = int(size) + 1
	}
	b := make([]byte, 0, c)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// Err returns the first read error.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless one is already set:
// decoders call it when the bytes read well but mean nothing valid, so
// every later read returns zero and Err reports the first fault.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len returns the number of bytes consumed so far.
func (r *Reader) Len() int64 { return int64(r.off) }

// short fails a read of what that found the input too short.
func (r *Reader) short(what string) {
	err := io.ErrUnexpectedEOF
	if r.off == len(r.buf) {
		err = io.EOF
	}
	r.Fail(fmt.Errorf("wire: %s: %w", what, err))
}

// Int decodes a zig-zag varint.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.varintFail("varint", n)
		return 0
	}
	r.off += n
	return int(v)
}

// Uint decodes a varint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.varintFail("uvarint", n)
		return 0
	}
	r.off += n
	return v
}

// varintFail records a varint decode that returned n <= 0: the input
// ran out (n == 0) or the value overflows 64 bits.
func (r *Reader) varintFail(what string, n int) {
	if n == 0 {
		r.short(what)
		return
	}
	r.Fail(fmt.Errorf("wire: %s overflows a 64-bit integer", what))
}

// Float decodes a float64.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.short("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// maxStringLen guards against corrupt length prefixes.
const maxStringLen = 1 << 24

// String decodes a length-prefixed string. The length is validated
// against maxStringLen and against the remaining input before the
// string is allocated.
func (r *Reader) String() string {
	n := r.Uint()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.Fail(fmt.Errorf("wire: string length %d too large", n))
		return ""
	}
	if rem := len(r.buf) - r.off; n > uint64(rem) {
		r.Fail(fmt.Errorf("wire: string length %d exceeds remaining input %d", n, rem))
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Raw consumes exactly n bytes and returns them (nil after a failure).
// The slice aliases the reader's buffer. n is a caller-chosen constant
// (e.g. a magic length), not untrusted input.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.short("raw read")
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Expect consumes len(want) bytes and fails unless they match.
func (r *Reader) Expect(want []byte) {
	if r.err != nil {
		return
	}
	if len(r.buf)-r.off < len(want) {
		r.short("magic")
		return
	}
	b := r.buf[r.off : r.off+len(want)]
	r.off += len(want)
	if !bytes.Equal(b, want) {
		r.Fail(fmt.Errorf("wire: bad magic %q, want %q", b, want))
	}
}
