package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// oracleParse is the encoding/xml token-stream parser Parse replaced,
// kept unchanged as the oracle FuzzParseXML and the parse tests pin
// Parse against: the same tree for every document it accepts, and a
// rejection for every document it rejects.
func oracleParse(r io.Reader, opts ParseOptions) (*Tree, error) {
	hint := opts.Hint
	if hint == nil {
		hint = DefaultTypeHint
	}
	dict := opts.Dict
	if dict == nil {
		dict = NewDict()
	}

	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	var textStack []*strings.Builder

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Label: t.Name.Local}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				n.Parent = p
				p.Children = append(p.Children, n)
			} else if root == nil {
				root = n
			} else {
				return nil, fmt.Errorf("xmltree: parse: multiple root elements")
			}
			if opts.Attributes {
				for _, a := range t.Attr {
					c := &Node{Label: "@" + a.Name.Local, Parent: n}
					assignValue(c, hint(n.Path()+"/@"+a.Name.Local, a.Value), a.Value, dict)
					n.Children = append(n.Children, c)
				}
			}
			stack = append(stack, n)
			textStack = append(textStack, &strings.Builder{})
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", t.Name.Local)
			}
			n := stack[len(stack)-1]
			text := strings.TrimSpace(textStack[len(textStack)-1].String())
			stack = stack[:len(stack)-1]
			textStack = textStack[:len(textStack)-1]
			if text != "" && len(n.Children) == 0 {
				assignValue(n, hint(n.Path(), text), text, dict)
			}
		case xml.CharData:
			if len(textStack) > 0 {
				textStack[len(textStack)-1].Write(t)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unbalanced document")
	}
	return NewTree(root, dict), nil
}

// nodeShape is one node of a parsed tree, with its links as preorder
// IDs, so trees from two parsers compare with reflect.DeepEqual.
type nodeShape struct {
	ID, Parent, SubtreeEnd int
	Label                  string
	Type                   ValueType
	Num                    int
	Str                    string
	Terms                  []int
	Children               []int
}

// treeShape is everything a parse determines: every node, the
// dictionary's terms in id order and the label index.
type treeShape struct {
	Nodes  []nodeShape
	Terms  []string
	Labels map[string][]int
}

func shapeOf(t *Tree) treeShape {
	s := treeShape{Terms: t.Dict.Terms(), Labels: map[string][]int{}}
	for _, n := range t.Nodes() {
		ns := nodeShape{ID: n.ID, Parent: -1, SubtreeEnd: t.SubtreeEnd(n), Label: n.Label,
			Type: n.Type, Num: n.Num, Str: n.Str, Terms: n.Terms}
		if n.Parent != nil {
			ns.Parent = n.Parent.ID
		}
		if n.Children != nil {
			ns.Children = make([]int, 0, len(n.Children))
		}
		for _, c := range n.Children {
			ns.Children = append(ns.Children, c.ID)
		}
		s.Nodes = append(s.Nodes, ns)
		s.Labels[n.Label] = t.LabeledIDs(n.Label)
	}
	return s
}

// hintCall is one call of a recording type hint.
type hintCall struct{ Path, Text string }

// recordingHint returns DefaultTypeHint wrapped to record its calls.
func recordingHint(calls *[]hintCall) TypeHint {
	return func(path, text string) ValueType {
		*calls = append(*calls, hintCall{path, text})
		return DefaultTypeHint(path, text)
	}
}

// checkOracle fails t unless Parse and oracleParse agree on doc under
// opts: both reject it, or both accept it with the same tree, the same
// dictionary and, with a custom hint, the same hint calls in the same
// order. An accepted tree must pass Validate, and its child lists must
// end their capacity at their length.
func checkOracle(t testing.TB, doc []byte, opts ParseOptions) {
	t.Helper()
	var got, want []hintCall
	gotOpts, wantOpts := opts, opts
	if opts.Hint != nil {
		gotOpts.Hint, wantOpts.Hint = recordingHint(&got), recordingHint(&want)
	}
	tr, err := Parse(bytes.NewReader(doc), gotOpts)
	oracle, oracleErr := oracleParse(bytes.NewReader(doc), wantOpts)
	if oracleErr != nil {
		if err == nil {
			t.Fatalf("Parse(%q, %+v) accepted a document the oracle rejects: %v", doc, opts, oracleErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("Parse(%q, %+v) = %v; the oracle accepts it", doc, opts, err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Parse(%q, %+v): %v", doc, opts, err)
	}
	if g, w := shapeOf(tr), shapeOf(oracle); !reflect.DeepEqual(g, w) {
		t.Fatalf("Parse(%q, %+v) differs from the oracle:\n got  %+v\n want %+v", doc, opts, g, w)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse(%q, %+v) hint calls %q, oracle %q", doc, opts, got, want)
	}
	for _, n := range tr.Nodes() {
		if cap(n.Children) != len(n.Children) {
			t.Fatalf("Parse(%q): node %d's child list has capacity %d beyond its length %d", doc, n.ID, cap(n.Children), len(n.Children))
		}
	}
}
