package catalog

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"xcluster/internal/service"
)

// estimateBody is one pooled POST /estimate exchange: the body's
// bytes, the slice a plain body's queries are decoded into, and the
// routed response. The decoded request's Queries may be that slice, so
// the handler releases the record only after the response is written.
type estimateBody struct {
	buf     []byte
	queries []string
	resp    service.EstimateResponse
}

// estimateBodies recycles estimateBody records.
var estimateBodies = sync.Pool{New: func() any { return new(estimateBody) }}

// Caps on what release returns to the pool, so one large body does not
// pin its memory.
const (
	maxPooledBody    = 64 << 10
	maxPooledQueries = 1024
)

// newEstimateBody returns a pooled record; release it once the
// response is written.
func newEstimateBody() *estimateBody { return estimateBodies.Get().(*estimateBody) }

// release returns b to the pool, its queries and response cleared so
// the pool keeps no query text or result alive.
func (b *estimateBody) release() {
	clear(b.queries)
	b.resp = service.EstimateResponse{}
	b.queries = b.queries[:0]
	if cap(b.buf) <= maxPooledBody && cap(b.queries) <= maxPooledQueries {
		estimateBodies.Put(b)
	}
}

// decode decodes the body of POST /estimate into req with decodeBody's
// outcome — the same request, or the same 400 envelope — but without a
// json.Decoder for a plain body. The body is read into b's buffer, up
// to one byte past service.MaxRequestBytes, and closed once read to its
// end: net/http then skips the read that looks for the end of a body
// the handler left open, and its allocation. A whole body within the
// limit is parsed by parsePlainEstimateRequest into b's queries slice.
// Any other body, including one the plain parser turns down, goes to
// decodeBody's json.Decoder over the same bytes followed by what ended
// the read: the end of the body, the read error, or, past the limit,
// the rest of the body under the same bound. Status and error text
// therefore cannot differ.
func (b *estimateBody) decode(w http.ResponseWriter, r *http.Request, req *EstimateRequest) bool {
	buf, err := readBody(r.Body, b.buf[:0], int(min(max(r.ContentLength, 0), service.MaxRequestBytes)))
	b.buf = buf
	if err == io.EOF {
		r.Body.Close() //nolint:errcheck // the body is read; closing it only marks it done
	}
	over := len(buf) > service.MaxRequestBytes
	if err == io.EOF && !over && parsePlainEstimateRequest(buf, b.queries, req) {
		b.queries = req.Queries
		return true
	}
	// The decoder reads the same bytes, then what ended the read: the
	// body's end, its read error, or, when the limit stopped it (err is
	// nil), the rest of the body, bounded as decodeBody bounds it.
	var body io.Reader = bytes.NewReader(buf)
	if err != io.EOF {
		rest := io.Reader(r.Body)
		if err != nil {
			rest = errReader{err}
		}
		body = io.MultiReader(body, rest)
	}
	if over {
		body = http.MaxBytesReader(w, io.NopCloser(body), service.MaxRequestBytes)
	}
	// json.Decoder's target escapes: decoding into a copy keeps req, the
	// caller's, off the heap on the plain path.
	var dec EstimateRequest
	ok := decodeJSON(w, body, &dec, false)
	*req = dec
	return ok
}

// readBody appends r's bytes to buf until r fails or ends, or buf holds
// more than service.MaxRequestBytes. It sizes buf for sizeHint bytes
// (the body's length, 0 when unknown) and the read that finds the end,
// so a body of the announced length is read without regrowing. It
// returns the error the read ended with (io.EOF at the end of the
// body), or nil when the limit stopped it.
func readBody(r io.Reader, buf []byte, sizeHint int) ([]byte, error) {
	buf = slices.Grow(buf, sizeHint+1)
	for len(buf) <= service.MaxRequestBytes {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), service.MaxRequestBytes+1)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// errReader is a reader that only fails, with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parsePlainEstimateRequest parses body into req if it is a plain
// estimate request: one object whose keys are exactly tenant,
// collection, queries, explain, plan or trace, each at most once, and
// unescaped; whose strings hold no control byte, are valid UTF-8 and
// escape nothing but single characters (json.Marshal writes <, > and &
// as \u003c, \u003e and \u0026), not UTF-16 surrogates; whose booleans
// are true or false and whose queries are an array of such strings;
// with JSON whitespace between tokens and nothing but whitespace after
// the object. json.Decoder, unknown fields disallowed, decodes such a
// body into the same request (FuzzDecodeEstimateRequest checks it). For
// any other body it reports false and leaves req untouched. The queries
// are decoded into queries' storage, grown only when it is too short.
// Validation comes first, so the only allocations are the strings of an
// accepted body and, past queries' capacity, its queries slice.
func parsePlainEstimateRequest(body []byte, queries []string, req *EstimateRequest) bool {
	const (
		fTenant = 1 << iota
		fCollection
		fQueries
		fExplain
		fPlan
		fTrace
	)
	var (
		p                  = plainParser{b: body}
		out                EstimateRequest
		seen               int
		tenant, collection []byte
		array              plainParser
		nq                 int
	)
	if !p.token('{') {
		return false
	}
	if !p.token('}') {
		for {
			key, ok := p.str()
			if !ok || !p.token(':') {
				return false
			}
			var field int
			switch string(key) {
			case "tenant":
				field = fTenant
				tenant, ok = p.str()
			case "collection":
				field = fCollection
				collection, ok = p.str()
			case "queries":
				field = fQueries
				array = p
				nq, ok = p.strs()
			case "explain":
				field = fExplain
				out.Explain, ok = p.boolean()
			case "plan":
				field = fPlan
				out.Plan, ok = p.boolean()
			case "trace":
				field = fTrace
				out.Trace, ok = p.boolean()
			default:
				return false
			}
			if !ok || seen&field != 0 {
				return false
			}
			seen |= field
			if p.token('}') {
				break
			}
			if !p.token(',') {
				return false
			}
		}
	}
	p.space()
	if p.i != len(body) {
		return false
	}
	out.Tenant, out.Collection = unescape(tenant), unescape(collection)
	if seen&fQueries != 0 {
		// The array is valid: rescan it for its strings. An empty array
		// decodes, as json.Decoder decodes it, to an empty slice, not nil.
		array.token('[')
		out.Queries = slices.Grow(queries[:0], nq)[:nq]
		if out.Queries == nil {
			out.Queries = []string{}
		}
		for i := range out.Queries {
			if i > 0 {
				array.token(',')
			}
			s, _ := array.str()
			out.Queries[i] = unescape(s)
		}
	}
	*req = out
	return true
}

// plainParser scans the JSON subset parsePlainEstimateRequest accepts.
type plainParser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *plainParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// token consumes c after optional whitespace.
func (p *plainParser) token(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a string with no control byte and only the escapes
// unescape decodes, and returns its still escaped contents, which must
// be valid UTF-8.
func (p *plainParser) str() ([]byte, bool) {
	if !p.token('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, utf8.Valid(s)
		case c == '\\':
			n, _ := escapeLen(p.b[p.i:])
			if n == 0 {
				return nil, false
			}
			p.i += n - 1
		case c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// strs consumes an array of such strings and reports how many it holds.
func (p *plainParser) strs() (n int, ok bool) {
	if !p.token('[') {
		return 0, false
	}
	if p.token(']') {
		return 0, true
	}
	for {
		if _, ok := p.str(); !ok {
			return 0, false
		}
		n++
		if p.token(']') {
			return n, true
		}
		if !p.token(',') {
			return 0, false
		}
	}
}

// boolean consumes true or false.
func (p *plainParser) boolean() (v, ok bool) {
	p.space()
	for _, lit := range [...]string{"false", "true"} {
		if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
			p.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}

// escapeLen returns the length of the escape sequence that starts b, a
// backslash, and the character it stands for; the length is 0 for a
// sequence str turns down: a malformed one, or a \u escape of a UTF-16
// surrogate, which json.Decoder pairs or replaces.
func escapeLen(b []byte) (n int, r rune) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\', '/':
		return 2, rune(b[1])
	case 'b':
		return 2, '\b'
	case 'f':
		return 2, '\f'
	case 'n':
		return 2, '\n'
	case 'r':
		return 2, '\r'
	case 't':
		return 2, '\t'
	case 'u':
		if len(b) < 6 {
			return 0, 0
		}
		for _, c := range b[2:6] {
			switch {
			case '0' <= c && c <= '9':
				c -= '0'
			case 'a' <= c && c <= 'f':
				c -= 'a' - 10
			case 'A' <= c && c <= 'F':
				c -= 'A' - 10
			default:
				return 0, 0
			}
			r = r<<4 | rune(c)
		}
		if utf16.IsSurrogate(r) {
			return 0, 0
		}
		return 6, r
	}
	return 0, 0
}

// unescape returns the string a str-validated string's contents stand
// for, in one allocation.
func unescape(s []byte) string {
	i := bytes.IndexByte(s, '\\')
	if i < 0 {
		return string(s)
	}
	var b strings.Builder
	b.Grow(len(s))
	for ; i >= 0; i = bytes.IndexByte(s, '\\') {
		n, r := escapeLen(s[i:])
		b.Write(s[:i])
		b.WriteRune(r)
		s = s[i+n:]
	}
	b.Write(s)
	return b.String()
}
