// Package xmltree implements the XML data model used throughout the
// XCluster reproduction: a large node-labeled tree T(V,E) in which every
// element node carries a label (tag) and, optionally, a typed value
// (NUMERIC, STRING, or TEXT).
//
// The package also provides a one-pass byte-level parser that accepts
// exactly the documents encoding/xml accepts, a writer built on
// encoding/xml, a free-text tokenizer, and a global term dictionary that
// maps index terms to dense integer ids (the Boolean-vector
// representation of TEXT values from the paper's IR model).
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// ValueType identifies the data type of an element's value. Elements
// without values are mapped to TypeNull, mirroring the paper's special
// null data type.
type ValueType uint8

const (
	// TypeNull marks elements that carry no value.
	TypeNull ValueType = iota
	// TypeNumeric marks integer-valued elements in the domain {0..M-1}.
	TypeNumeric
	// TypeString marks short string values queried with substring
	// (contains) predicates.
	TypeString
	// TypeText marks free-text values queried with IR-style keyword
	// (ftcontains) predicates; they are modeled as Boolean term vectors
	// over the document's term dictionary.
	TypeText
)

// String returns the conventional name of the value type.
func (t ValueType) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeNumeric:
		return "numeric"
	case TypeString:
		return "string"
	case TypeText:
		return "text"
	default:
		return fmt.Sprintf("ValueType(%d)", uint8(t))
	}
}

// Node is a single element node of the document tree.
type Node struct {
	// ID is the preorder identifier of the node within its Tree, assigned
	// by the Tree builder; the root has ID 0.
	ID int
	// Label is the element tag.
	Label string
	// Type is the data type of the node's value.
	Type ValueType
	// Num is the numeric value when Type == TypeNumeric.
	Num int
	// Str is the string value when Type == TypeString.
	Str string
	// Terms is the sorted set of dictionary term ids present in the
	// node's free text when Type == TypeText (the Boolean term vector in
	// sparse form).
	Terms []int
	// Parent is the parent element, nil for the root.
	Parent *Node
	// Children are the element's child elements in document order.
	Children []*Node
}

// IsLeaf reports whether the node has no child elements.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// HasTerm reports whether term id t appears in the node's TEXT value.
// Terms must be sorted, which the Tree builder guarantees.
func (n *Node) HasTerm(t int) bool {
	i := sort.SearchInts(n.Terms, t)
	return i < len(n.Terms) && n.Terms[i] == t
}

// Path returns the root-to-node label path, e.g. "/site/people/person".
func (n *Node) Path() string {
	if n.Parent == nil {
		return "/" + n.Label
	}
	return n.Parent.Path() + "/" + n.Label
}

// Tree is an entire XML document: the root element plus the shared term
// dictionary used by every TEXT value in the document.
type Tree struct {
	Root *Node
	// Dict maps free-text terms to the dense ids used in Node.Terms.
	Dict *Dict
	// nodes holds every node indexed by ID (preorder).
	nodes []*Node
	// subtreeEnd[i] is the largest preorder ID inside node i's subtree,
	// so i's descendants are exactly the IDs in (i, subtreeEnd[i]].
	subtreeEnd []int
	// byLabel indexes node IDs (sorted) per label.
	byLabel map[string][]int
}

// NewTree wraps a root node (with its descendants already linked) into a
// Tree, assigning preorder IDs and normalizing term vectors. dict may be
// nil when the document has no TEXT content.
func NewTree(root *Node, dict *Dict) *Tree {
	if dict == nil {
		dict = NewDict()
	}
	t := &Tree{Root: root, Dict: dict}
	t.reindex()
	return t
}

// reindex assigns preorder IDs, collects the node slice, and builds the
// subtree-interval and label indexes that back descendant navigation.
func (t *Tree) reindex() {
	t.nodes = t.nodes[:0]
	t.byLabel = make(map[string][]int)
	var walk func(n *Node)
	walk = func(n *Node) {
		n.ID = len(t.nodes)
		t.nodes = append(t.nodes, n)
		t.byLabel[n.Label] = append(t.byLabel[n.Label], n.ID)
		if n.Type == TypeText && !sort.IntsAreSorted(n.Terms) {
			sort.Ints(n.Terms)
		}
		for _, c := range n.Children {
			c.Parent = n
			walk(c)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	t.subtreeEnd = make([]int, len(t.nodes))
	var mark func(n *Node) int
	mark = func(n *Node) int {
		end := n.ID
		for _, c := range n.Children {
			end = mark(c)
		}
		t.subtreeEnd[n.ID] = end
		return end
	}
	if t.Root != nil {
		mark(t.Root)
	}
}

// SubtreeEnd returns the largest preorder ID within n's subtree: n's
// proper descendants are exactly the nodes with IDs in (n.ID, end].
func (t *Tree) SubtreeEnd(n *Node) int { return t.subtreeEnd[n.ID] }

// LabeledIDs returns the sorted preorder IDs of all nodes with the given
// label (nil if none). The slice is owned by the tree.
func (t *Tree) LabeledIDs(label string) []int { return t.byLabel[label] }

// Len returns the number of element nodes in the document.
func (t *Tree) Len() int { return len(t.nodes) }

// Node returns the node with the given preorder ID.
func (t *Tree) Node(id int) *Node { return t.nodes[id] }

// Nodes returns all nodes in preorder. The slice is owned by the tree and
// must not be mutated.
func (t *Tree) Nodes() []*Node { return t.nodes }

// Walk visits every node in preorder.
func (t *Tree) Walk(fn func(*Node)) {
	for _, n := range t.nodes {
		fn(n)
	}
}

// Stats summarizes the document for reporting (Table 1 of the paper).
type Stats struct {
	Elements   int // total element count
	ValueNodes int // elements with non-null values
	ByType     map[ValueType]int
	Labels     int // distinct tags
	MaxDepth   int
	Terms      int // dictionary size
}

// ComputeStats derives document statistics in a single pass.
func (t *Tree) ComputeStats() Stats {
	s := Stats{ByType: make(map[ValueType]int), Terms: t.Dict.Len()}
	labels := make(map[string]struct{})
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Elements++
		labels[n.Label] = struct{}{}
		if n.Type != TypeNull {
			s.ValueNodes++
		}
		s.ByType[n.Type]++
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if t.Root != nil {
		walk(t.Root, 1)
	}
	s.Labels = len(labels)
	return s
}

// PathNodes returns all nodes whose root path equals path (a
// "/a/b/c"-style label path).
func (t *Tree) PathNodes(path string) []*Node {
	var out []*Node
	for _, n := range t.nodes {
		if n.Path() == path {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks structural invariants of the tree: parent/child links
// are mutual, IDs are preorder, and term vectors are sorted sets within
// the dictionary. It returns the first violation found.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("xmltree: nil root")
	}
	if t.Root.Parent != nil {
		return fmt.Errorf("xmltree: root has a parent")
	}
	want := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.ID != want {
			return fmt.Errorf("xmltree: node %q has id %d, want %d", n.Label, n.ID, want)
		}
		want++
		if strings.TrimSpace(n.Label) == "" {
			return fmt.Errorf("xmltree: node %d has empty label", n.ID)
		}
		if n.Type == TypeText {
			for i, term := range n.Terms {
				if i > 0 && n.Terms[i-1] >= term {
					return fmt.Errorf("xmltree: node %d has unsorted/duplicate terms", n.ID)
				}
				if term < 0 || term >= t.Dict.Len() {
					return fmt.Errorf("xmltree: node %d references unknown term %d", n.ID, term)
				}
			}
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("xmltree: node %d child %d has wrong parent", n.ID, c.ID)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	if want != len(t.nodes) {
		return fmt.Errorf("xmltree: index holds %d nodes, tree has %d", len(t.nodes), want)
	}
	return nil
}
