package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// reader builds a Tree from a whole XML document in one pass over its
// bytes. It accepts a document exactly when encoding/xml's strict
// Decoder (no entity map, no charset reader) reads it to the end and
// finds one root element, and it builds the tree Parse built on that
// Decoder's token stream; FuzzParseXML compares the two.
//
//   - Element and attribute names are checked once per document and
//     interned (names), so each distinct label is one string.
//   - The open elements are a stack of frames, and the children of all
//     open elements wait on one shared stack (kids). When an element
//     closes, its children are copied out at exact length.
//   - Nodes and child lists are carved from chunked slabs.
//   - The innermost element's character data, with references and CDATA
//     sections resolved, collects in one reused buffer (text), and only
//     while that element has no child: only a leaf keeps its text.
//   - The tree never points into the input. STRING values and new
//     dictionary terms are copied out.
type reader struct {
	in    []byte
	pos   int
	attrs bool     // ParseOptions.Attributes
	hint  TypeHint // ParseOptions.Hint; nil is DefaultTypeHint, which gets no path
	dict  *Dict
	names map[string]qname
	root  *Node
	stack []frame
	kids  []*Node
	text  []byte
	nodes []Node  // current chunk of the node slab
	lists []*Node // current chunk of the child-list slab
}

// frame is an open element.
type frame struct {
	node *Node
	name string // the name as written: the end tag must repeat it
	kids int    // where the element's children start in reader.kids
}

// qname is a checked element or attribute name.
type qname struct {
	raw   string // as written, namespace prefix included
	local string // the label: the name without its prefix
	attr  string // "@"+local, made when the name is first used for an attribute
}

// slabSize returns the size of the slab chunk that follows one of size
// prev: chunks double from 32 to 4096 entries.
func slabSize(prev int) int { return min(max(2*prev, 32), 4096) }

func (p *reader) errorf(at int, format string, args ...any) error {
	line := 1 + bytes.Count(p.in[:at], []byte{'\n'})
	return fmt.Errorf("xmltree: parse: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *reader) eof() error { return p.errorf(len(p.in), "unexpected EOF") }

// document reads the input and returns the root element.
func (p *reader) document() (*Node, error) {
	for p.pos < len(p.in) {
		var err error
		if p.in[p.pos] == '<' {
			err = p.markup(p.pos + 1)
		} else {
			p.pos, err = p.chars(p.pos, 0, p.collecting())
		}
		if err != nil {
			return nil, err
		}
	}
	if len(p.stack) > 0 {
		return nil, p.eof()
	}
	if p.root == nil {
		return nil, errors.New("xmltree: parse: empty document")
	}
	return p.root, nil
}

// markup reads the tag, comment, CDATA section, processing instruction
// or declaration whose '<' is at i-1.
func (p *reader) markup(i int) error {
	if i >= len(p.in) {
		return p.eof()
	}
	switch p.in[i] {
	case '/':
		return p.endTag(i + 1)
	case '?':
		return p.procInst(i + 1)
	case '!':
		return p.bang(i + 1)
	}
	return p.startTag(i)
}

// collecting reports whether character data belongs to a leaf so far:
// the innermost open element has no child yet.
func (p *reader) collecting() bool {
	return len(p.stack) > 0 && len(p.kids) == p.stack[len(p.stack)-1].kids
}

func (p *reader) startTag(i int) error {
	q, i, err := p.name(i)
	if err != nil {
		return err
	}
	n := p.newNode(q.local)
	if len(p.stack) > 0 {
		n.Parent = p.stack[len(p.stack)-1].node
		p.kids = append(p.kids, n)
	} else if p.root == nil {
		p.root = n
	} else {
		return p.errorf(i, "multiple root elements")
	}
	p.stack = append(p.stack, frame{node: n, name: q.raw, kids: len(p.kids)})
	p.text = p.text[:0]
	for {
		if i = p.space(i); i >= len(p.in) {
			return p.eof()
		}
		switch p.in[i] {
		case '>':
			p.pos = i + 1
			return nil
		case '/':
			if i+1 >= len(p.in) {
				return p.eof()
			}
			if p.in[i+1] != '>' {
				return p.errorf(i, "expected /> in element")
			}
			p.pos = i + 2
			p.closeElement()
			return nil
		}
		if i, err = p.attribute(i, n); err != nil {
			return err
		}
	}
}

// attribute reads the attribute at i in n's start tag and, when
// attributes are kept, adds it to n as an "@name" child.
func (p *reader) attribute(i int, n *Node) (int, error) {
	q, i, err := p.name(i)
	if err != nil {
		return i, err
	}
	if i = p.space(i); i >= len(p.in) {
		return i, p.eof()
	}
	if p.in[i] != '=' {
		return i, p.errorf(i, "attribute name without = in element")
	}
	if i = p.space(i + 1); i >= len(p.in) {
		return i, p.eof()
	}
	quote := p.in[i]
	if quote != '"' && quote != '\'' {
		return i, p.errorf(i, "unquoted or missing attribute value in element")
	}
	if i, err = p.chars(i+1, quote, p.attrs); err != nil || !p.attrs {
		return i, err
	}
	if q.attr == "" {
		q.attr = "@" + q.local
		p.names[q.raw] = q
	}
	c := p.newNode(q.attr)
	c.Parent = n
	p.kids = append(p.kids, c)
	p.assign(c, string(p.text), q.attr)
	p.text = p.text[:0]
	return i, nil
}

func (p *reader) endTag(i int) error {
	end, err := p.nameEnd(i)
	if err != nil {
		return err
	}
	name := p.in[i:end]
	if len(p.stack) == 0 || string(name) != p.stack[len(p.stack)-1].name {
		return p.errorf(i, "unexpected end element </%s>", name)
	}
	if i = p.space(end); i >= len(p.in) {
		return p.eof()
	}
	if p.in[i] != '>' {
		return p.errorf(i, "invalid characters between </%s and >", name)
	}
	p.pos = i + 1
	p.closeElement()
	return nil
}

// closeElement ends the innermost open element: its children are copied
// out, or, for a leaf, its trimmed text becomes its value.
func (p *reader) closeElement() {
	f := p.stack[len(p.stack)-1]
	if kids := p.kids[f.kids:]; len(kids) > 0 {
		f.node.Children = p.childList(kids)
		p.kids = p.kids[:f.kids]
	} else if text := bytes.TrimSpace(p.text); len(text) > 0 {
		// DefaultTypeHint makes an integer NUMERIC, which needs no string.
		num, ok := 0, false
		if p.hint == nil && startsNumber(text[0]) {
			num, ok = atoi(string(text))
		}
		if ok {
			f.node.Type, f.node.Num = TypeNumeric, num
		} else {
			p.assign(f.node, string(text), "")
		}
	}
	p.stack = p.stack[:len(p.stack)-1]
	p.text = p.text[:0]
}

// assign types text with the hint and stores it on n. A custom hint gets
// the label path of the innermost open element, extended by attr for an
// attribute node.
func (p *reader) assign(n *Node, text, attr string) {
	var vt ValueType
	if p.hint == nil {
		vt = DefaultTypeHint("", text)
	} else {
		var path strings.Builder
		for _, f := range p.stack {
			path.WriteByte('/')
			path.WriteString(f.node.Label)
		}
		if attr != "" {
			path.WriteByte('/')
			path.WriteString(attr)
		}
		vt = p.hint(path.String(), text)
	}
	assignValue(n, vt, text, p.dict)
}

func (p *reader) newNode(label string) *Node {
	if len(p.nodes) == cap(p.nodes) {
		p.nodes = make([]Node, 0, slabSize(cap(p.nodes)))
	}
	p.nodes = append(p.nodes, Node{Label: label})
	return &p.nodes[len(p.nodes)-1]
}

// childList copies kids into the child-list slab and returns the copy,
// capped at its length so an append never writes into a neighbour.
func (p *reader) childList(kids []*Node) []*Node {
	if cap(p.lists)-len(p.lists) < len(kids) {
		p.lists = make([]*Node, 0, max(len(kids), slabSize(cap(p.lists))))
	}
	start := len(p.lists)
	p.lists = append(p.lists, kids...)
	return p.lists[start:len(p.lists):len(p.lists)]
}

// space skips XML white space from i.
func (p *reader) space(i int) int {
	for i < len(p.in) {
		switch p.in[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// nameByte marks the bytes encoding/xml reads into a name: ASCII
// letters, digits, '_', ':', '.' and '-', and every non-ASCII byte
// (whose runes it checks afterwards).
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// nameEnd returns the end of the run of name bytes at i. The run must
// start with a name byte and must not reach the end of the input.
func (p *reader) nameEnd(i int) (int, error) {
	if i >= len(p.in) {
		return i, p.eof()
	}
	if !nameByte[p.in[i]] {
		return i, p.errorf(i, "expected a name")
	}
	for i++; i < len(p.in) && nameByte[p.in[i]]; i++ {
	}
	if i >= len(p.in) {
		return i, p.eof()
	}
	return i, nil
}

// name reads the element or attribute name at i. A name may carry one
// namespace prefix, which its label drops.
func (p *reader) name(i int) (qname, int, error) {
	end, err := p.nameEnd(i)
	if err != nil {
		return qname{}, end, err
	}
	raw := p.in[i:end]
	if q, ok := p.names[string(raw)]; ok {
		return q, end, nil
	}
	if !validName(raw) || bytes.Count(raw, []byte{':'}) > 1 {
		return qname{}, end, p.errorf(i, "invalid XML name: %s", raw)
	}
	q := qname{raw: string(raw)}
	q.local = q.raw
	if prefix, local, ok := strings.Cut(q.raw, ":"); ok && prefix != "" && local != "" {
		q.local = local
	}
	p.names[q.raw] = q
	return q, end, nil
}

// validName reports whether encoding/xml accepts name, a run of name
// bytes, as an XML name.
func validName(name []byte) bool {
	if c := name[0]; c < utf8.RuneSelf && !('a' <= c|0x20 && c|0x20 <= 'z' || c == '_' || c == ':') {
		return false
	}
	for _, c := range name {
		if c >= utf8.RuneSelf {
			return decoderAcceptsName(name)
		}
	}
	return true
}

// decoderAcceptsName asks encoding/xml whether it accepts name, which
// holds a non-ASCII byte, as a name. Its name tables (the Letter,
// Digit, CombiningChar and Extender classes of XML 1.0 Appendix B) are
// unexported, so it is given name as a processing-instruction target.
// Element and attribute names are interned, so this runs once per
// distinct name in a document.
func decoderAcceptsName(name []byte) bool {
	pi := append(append([]byte("<?"), name...), "?>"...)
	_, err := xml.NewDecoder(bytes.NewReader(pi)).RawToken()
	return err == nil
}

// procInst skips the processing instruction whose target starts at i,
// checking an XML declaration's version and encoding.
func (p *reader) procInst(i int) error {
	end, err := p.nameEnd(i)
	if err != nil {
		return err
	}
	target := p.in[i:end]
	if !validName(target) {
		return p.errorf(i, "invalid XML name: %s", target)
	}
	i = p.space(end)
	k := bytes.Index(p.in[i:], []byte("?>"))
	if k < 0 {
		return p.eof()
	}
	if string(target) == "xml" {
		decl := string(p.in[i : i+k])
		if v := declParam("version", decl); v != "" && v != "1.0" {
			return p.errorf(i, "unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := declParam("encoding", decl); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return p.errorf(i, "unsupported encoding %q", enc)
		}
	}
	p.pos = i + k + 2
	return nil
}

// declParam returns the quoted value of param in the content of an XML
// declaration, read the way encoding/xml reads it: the first
// `param=` followed by a quote opens the value, and the next matching
// quote closes it.
func declParam(param, decl string) string {
	param += "="
	for i := 0; i < len(decl); {
		k := strings.Index(decl[i:], param)
		if k < 0 || i+k+len(param) >= len(decl) {
			return ""
		}
		i += k + len(param)
		quote := decl[i]
		i++
		if quote == '\'' || quote == '"' {
			if j := strings.IndexByte(decl[i:], quote); j >= 0 {
				return decl[i : i+j]
			}
			return ""
		}
	}
	return ""
}

// bang reads the comment, CDATA section or declaration whose "<!" ends
// at i-1.
func (p *reader) bang(i int) error {
	if i >= len(p.in) {
		return p.eof()
	}
	switch p.in[i] {
	case '-':
		if i+1 >= len(p.in) {
			return p.eof()
		}
		if p.in[i+1] != '-' {
			return p.errorf(i, "invalid sequence <!- not part of <!--")
		}
		i += 2
		k := bytes.Index(p.in[i:], []byte("--"))
		if k < 0 || i+k+2 >= len(p.in) {
			return p.eof()
		}
		if i += k + 2; p.in[i] != '>' {
			return p.errorf(i, `invalid sequence "--" not allowed in comments`)
		}
		p.pos = i + 1
	case '[':
		if !bytes.HasPrefix(p.in[i+1:], []byte("CDATA[")) {
			return p.errorf(i, "invalid <![ sequence")
		}
		i += 7
		k := bytes.Index(p.in[i:], []byte("]]>"))
		if k < 0 {
			return p.eof()
		}
		if err := p.cdata(i, i+k); err != nil {
			return err
		}
		p.pos = i + k + 3
	default:
		end, err := p.directive(i)
		if err != nil {
			return err
		}
		p.pos = end
	}
	return nil
}

// cdata checks the characters of the CDATA section in[i:end] and
// collects them, newlines normalized, when they belong to a leaf.
func (p *reader) cdata(i, end int) error {
	for j := i; j < end; {
		size := charLen(p.in[j:end])
		if size == 0 {
			return p.errorf(j, "illegal character")
		}
		j += size
	}
	if p.collecting() {
		p.text = appendNewlines(p.text, p.in[i:end])
	}
	return nil
}

// directive skips a declaration such as <!DOCTYPE ...> whose first byte
// after "<!" is at i, and returns the index after its closing '>'. As in
// encoding/xml, that first byte is taken verbatim, a quoted '>' does not
// close it, each nested '<' needs its own '>', and a nested <!-- -->
// is skipped whole.
func (p *reader) directive(i int) (int, error) {
	in := p.in
	var quote byte
	depth := 0
	for i++; ; {
		if i >= len(in) {
			return i, p.eof()
		}
		b := in[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			return i, nil
		}
	handle:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			const open = "!--"
			for k := 0; k < len(open); k++ {
				if i >= len(in) {
					return i, p.eof()
				}
				b = in[i]
				i++
				if b != open[k] {
					depth++
					goto handle
				}
			}
			k := bytes.Index(in[i:], []byte("-->"))
			if k < 0 {
				return i, p.eof()
			}
			i += k + 3
		}
	}
}

// textByte marks the bytes chars passes over without a second look:
// the legal ASCII characters other than '<', '&', ']' and the quotes.
var textByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['\t'], t['\n'], t['\r'] = true, true, true
	for _, c := range []byte(`<&]"'`) {
		t[c] = false
	}
	return t
}()

// chars reads character data from i, as encoding/xml's text does: for
// element content (quote 0) up to the next '<' or the end of the input,
// and for an attribute value through its closing quote. It resolves
// references, rejects characters outside XML's Char production (and
// "]]>" in content, and '<' in a value), and, when collect is set,
// appends the data to p.text with "\r\n" and lone '\r' read as '\n'. It
// returns the index where reading stopped.
func (p *reader) chars(i int, quote byte, collect bool) (int, error) {
	in := p.in
	run := i // start of the literal bytes not yet collected
	for {
		for i < len(in) && textByte[in[i]] {
			i++
		}
		if i >= len(in) {
			if quote != 0 {
				return i, p.eof()
			}
			break
		}
		c := in[i]
		if c == '<' {
			if quote != 0 {
				return i, p.errorf(i, "unescaped < inside quoted string")
			}
			break
		}
		switch {
		case quote != 0 && c == quote:
			if collect {
				p.text = appendNewlines(p.text, in[run:i])
			}
			return i + 1, nil
		case c == '&':
			r, next, err := p.reference(i)
			if err != nil {
				return i, err
			}
			if collect {
				p.text = utf8.AppendRune(appendNewlines(p.text, in[run:i]), r)
			}
			i, run = next, next
		case c == ']':
			if quote == 0 && i+2 < len(in) && in[i+1] == ']' && in[i+2] == '>' {
				return i, p.errorf(i, "unescaped ]]> not in CDATA section")
			}
			i++
		case c == '"' || c == '\'':
			i++
		case c >= utf8.RuneSelf:
			size := charLen(in[i:])
			if size == 0 {
				return i, p.errorf(i, "illegal character")
			}
			i += size
		default:
			return i, p.errorf(i, "illegal character code %U", rune(c))
		}
	}
	if collect {
		p.text = appendNewlines(p.text, in[run:i])
	}
	return i, nil
}

// entities are the predefined entities, each with its closing ';'.
var entities = [...]struct {
	ref string
	r   rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// reference resolves the entity or character reference whose '&' is at
// i, returning its rune and the index after its ';'. As in encoding/xml,
// a surrogate code point resolves to U+FFFD.
func (p *reader) reference(i int) (rune, int, error) {
	ref := p.in[i+1:]
	if len(ref) > 0 && ref[0] == '#' {
		j, base := 1, uint64(10)
		if len(ref) > 1 && ref[1] == 'x' {
			j, base = 2, 16
		}
		digits, n := j, uint64(0)
		for ; j < len(ref); j++ {
			d := digitValue(ref[j])
			if d >= base {
				break
			}
			if n <= unicode.MaxRune {
				n = n*base + d
			}
		}
		if j == digits || j >= len(ref) || ref[j] != ';' || n > unicode.MaxRune {
			return 0, i, p.errorf(i, "invalid character entity")
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		if !isInCharacterRange(r) {
			return 0, i, p.errorf(i, "illegal character code %U", r)
		}
		return r, i + 1 + j + 1, nil
	}
	for _, e := range entities {
		if bytes.HasPrefix(ref, []byte(e.ref)) {
			return e.r, i + 1 + len(e.ref), nil
		}
	}
	return 0, i, p.errorf(i, "invalid character entity")
}

// digitValue returns the value of a hexadecimal digit, or 16 for any
// other byte.
func digitValue(c byte) uint64 {
	switch {
	case '0' <= c && c <= '9':
		return uint64(c - '0')
	case 'a' <= c && c <= 'f':
		return uint64(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return uint64(c-'A') + 10
	}
	return 16
}

// charLen returns the length of the UTF-8 encoded character at the
// start of b, or 0 when it is invalid UTF-8 or outside XML's Char
// production.
func charLen(b []byte) int {
	r, size := utf8.DecodeRune(b)
	if r == utf8.RuneError && size == 1 || !isInCharacterRange(r) {
		return 0
	}
	return size
}

// isInCharacterRange reports whether r is in XML 1.0's Char production.
func isInCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// appendNewlines appends raw to dst with "\r\n" and lone '\r' turned
// into '\n'.
func appendNewlines(dst, raw []byte) []byte {
	for {
		k := bytes.IndexByte(raw, '\r')
		if k < 0 {
			return append(dst, raw...)
		}
		dst = append(append(dst, raw[:k]...), '\n')
		raw = raw[k+1:]
		if len(raw) > 0 && raw[0] == '\n' {
			raw = raw[1:]
		}
	}
}
