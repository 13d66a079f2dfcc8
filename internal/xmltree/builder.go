package xmltree

// Builder assembles a document tree programmatically. Generators and tests
// use it instead of round-tripping through XML text.
type Builder struct {
	dict  *Dict
	root  *Node
	stack []*Node
}

// NewBuilder returns a Builder that interns TEXT terms into dict (a fresh
// dictionary is created when nil).
func NewBuilder(dict *Dict) *Builder {
	if dict == nil {
		dict = NewDict()
	}
	return &Builder{dict: dict}
}

// Dict returns the builder's term dictionary.
func (b *Builder) Dict() *Dict { return b.dict }

// push attaches a node under the current open element (or as root).
func (b *Builder) push(n *Node) *Node {
	if len(b.stack) > 0 {
		p := b.stack[len(b.stack)-1]
		n.Parent = p
		p.Children = append(p.Children, n)
	} else if b.root == nil {
		b.root = n
	} else {
		panic("xmltree: Builder: multiple roots")
	}
	return n
}

// Open starts a structural element and makes it the current element.
func (b *Builder) Open(label string) *Builder {
	n := b.push(&Node{Label: label})
	b.stack = append(b.stack, n)
	return b
}

// Close ends the current element.
func (b *Builder) Close() *Builder {
	if len(b.stack) == 0 {
		panic("xmltree: Builder: Close without Open")
	}
	b.stack = b.stack[:len(b.stack)-1]
	return b
}

// Numeric adds a NUMERIC-valued leaf element.
func (b *Builder) Numeric(label string, v int) *Builder {
	b.push(&Node{Label: label, Type: TypeNumeric, Num: v})
	return b
}

// String adds a STRING-valued leaf element.
func (b *Builder) String(label, v string) *Builder {
	b.push(&Node{Label: label, Type: TypeString, Str: v})
	return b
}

// Text adds a TEXT-valued leaf element, interning the raw text.
func (b *Builder) Text(label, text string) *Builder {
	b.push(&Node{Label: label, Type: TypeText, Terms: b.dict.InternText(text)})
	return b
}

// Empty adds a structural leaf element with no value.
func (b *Builder) Empty(label string) *Builder {
	b.push(&Node{Label: label})
	return b
}

// Tree finalizes the document. It panics if elements remain open or
// nothing was built.
func (b *Builder) Tree() *Tree {
	if len(b.stack) != 0 {
		panic("xmltree: Builder: unclosed elements")
	}
	if b.root == nil {
		panic("xmltree: Builder: empty document")
	}
	return NewTree(b.root, b.dict)
}
