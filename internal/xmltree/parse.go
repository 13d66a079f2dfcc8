package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
)

// TypeHint decides the value type of an element that carries character
// data. It receives the root label path of the element (e.g.
// "/site/item/price") and the raw text, and returns the type to assign.
type TypeHint func(path, text string) ValueType

// DefaultTypeHint infers a value type from the text alone: integers become
// NUMERIC, short strings (at most five index terms) become STRING, and
// longer free text becomes TEXT. This matches the paper's convention that
// NUMERIC values live in an integer domain, STRING values are short
// (titles, names), and TEXT values are free text (abstracts, forewords).
func DefaultTypeHint(path, text string) ValueType {
	if _, ok := atoi(text); ok {
		return TypeNumeric
	}
	if countTerms(text, 6) > 5 {
		return TypeText
	}
	return TypeString
}

// atoi is strconv.Atoi of the space-trimmed text. Text whose first byte
// is neither a digit nor a sign is rejected before Atoi would build a
// *strconv.NumError for it.
func atoi(text string) (int, bool) {
	s := strings.TrimSpace(text)
	if s == "" || !startsNumber(s[0]) {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// startsNumber reports whether strconv.Atoi could accept a string that
// starts with c: a digit or a sign.
func startsNumber(c byte) bool { return '0' <= c && c <= '9' || c == '+' || c == '-' }

// ParseOptions configures Parse.
type ParseOptions struct {
	// Hint decides value types; DefaultTypeHint is used when nil.
	Hint TypeHint
	// Dict is the term dictionary to intern TEXT terms into; a fresh one
	// is created when nil.
	Dict *Dict
	// Attributes maps XML attributes to child elements labeled "@name"
	// carrying the attribute value (typed via Hint). The paper's data
	// model is element-only, but real data sets (including the original
	// XMark) carry ids and refs as attributes; this folds them into the
	// model instead of dropping them.
	Attributes bool
}

// Parse reads an XML document into a Tree. Elements whose content is pure
// character data become typed value nodes; mixed and element-only content
// contributes structure only. Attributes are ignored unless
// opts.Attributes is set (the paper's model is element-only; generators
// emit attribute-free documents).
//
// Parse reads the whole input and builds the tree in one pass over its
// bytes (see reader). It accepts exactly the documents encoding/xml's
// strict Decoder accepts: end tags must match, names and characters
// must be legal, only the five predefined entities and character
// references resolve, there is one root element, and an XML declaration
// may name no encoding but UTF-8. Comments, processing instructions and
// DOCTYPE declarations are skipped, and so is text outside the root.
func Parse(r io.Reader, opts ParseOptions) (*Tree, error) {
	in, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	dict := opts.Dict
	if dict == nil {
		dict = NewDict()
	}
	p := &reader{in: in, attrs: opts.Attributes, hint: opts.Hint, dict: dict, names: make(map[string]qname)}
	root, err := p.document()
	if err != nil {
		return nil, err
	}
	return NewTree(root, dict), nil
}

// readAll reads r to its end into one buffer, sized up front when r
// reports its length (bytes and strings readers, files).
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch r := r.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil {
			size = int(fi.Size())
		}
	}
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// assignValue stores text on n under the given type, interning TEXT terms
// into dict.
func assignValue(n *Node, vt ValueType, text string, dict *Dict) {
	switch vt {
	case TypeNumeric:
		num, ok := atoi(text)
		if !ok {
			// The hint lied; fall back to STRING so no data is lost.
			n.Type = TypeString
			n.Str = text
			return
		}
		n.Type = TypeNumeric
		n.Num = num
	case TypeString:
		n.Type = TypeString
		n.Str = text
	case TypeText:
		n.Type = TypeText
		n.Terms = dict.InternText(text)
	default:
		n.Type = TypeNull
	}
}

// Write serializes the tree back to XML with two-space indentation. TEXT
// values are written as the space-joined dictionary terms of their vector
// (the Boolean model retains term sets, not the original prose).
func Write(w io.Writer, t *Tree) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := writeNode(enc, t, t.Root); err != nil {
		return err
	}
	return enc.Flush()
}

func writeNode(enc *xml.Encoder, t *Tree, n *Node) error {
	start := xml.StartElement{Name: xml.Name{Local: n.Label}}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	switch n.Type {
	case TypeNumeric:
		if err := enc.EncodeToken(xml.CharData(strconv.Itoa(n.Num))); err != nil {
			return err
		}
	case TypeString:
		if err := enc.EncodeToken(xml.CharData(n.Str)); err != nil {
			return err
		}
	case TypeText:
		terms := make([]string, len(n.Terms))
		for i, id := range n.Terms {
			terms[i] = t.Dict.Term(id)
		}
		if err := enc.EncodeToken(xml.CharData(strings.Join(terms, " "))); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := writeNode(enc, t, c); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}
